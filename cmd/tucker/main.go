// Command tucker computes a Tucker decomposition of a synthetic
// low-multilinear-rank tensor with HOOI, sequentially (started from
// the sequentially truncated HOSVD, on the planned worker count) or on
// the simulated distributed machine (started from seeded orthonormal
// factors), reporting fit per sweep and, on a grid, the per-processor
// all-reduce words of the projections and the norm — the Tucker-side
// extension of the paper's MTTKRP communication analysis. With -obs,
// the sequential run's counters show what the truncation saves: at
// -dims 32,32,32,32 -ranks 8,8,8,8 -iters 1 they read 116 752 384
// flops, 68 MFLOP of them in the initialization's Grams and
// contractions.
//
// Usage:
//
//	tucker -dims 16,16,16 -ranks 3,3,3 [-grid 2,2,2] [-iters 10]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

func main() {
	dimsFlag := flag.String("dims", "16,16,16", "tensor dimensions")
	ranksFlag := flag.String("ranks", "3,3,3", "multilinear ranks")
	gridFlag := flag.String("grid", "", "processor grid; empty = sequential")
	iters := flag.Int("iters", 10, "HOOI sweeps")
	noise := flag.Float64("noise", 0.01, "noise half-width")
	seed := flag.Int64("seed", 5, "seed")
	obsFlag := flag.Bool("obs", false, "print the instrumented observability report")
	obsJSON := flag.String("obs-json", "", "write the observability report as JSON to this path (- for stdout)")
	traceOut := flag.String("trace", "", "write a flight-recorder Chrome trace (JSON) to this path")
	flag.Parse()

	dims, err := parseInts(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	ranks, err := parseInts(*ranksFlag)
	if err != nil {
		fatal(err)
	}
	if len(ranks) != len(dims) {
		fatal(fmt.Errorf("need one rank per mode"))
	}

	// -trace starts before the planner runs so the sequential trace
	// carries the plan instant; parallel HOOI gets one process row per
	// rank.
	if *traceOut != "" {
		procs := 0
		if *gridFlag != "" {
			shape, err := parseInts(*gridFlag)
			if err != nil {
				fatal(err)
			}
			procs = 1
			for _, s := range shape {
				procs *= s
			}
		}
		flush := flight.StartTrace(*traceOut, procs)
		defer func() {
			if err := flush(); err != nil {
				fatal(err)
			}
		}()
	}

	// The sequential run's hot loop is the HOOI sweep body of
	// internal/ttm. The calibrated planner plans it as a Tucker
	// problem of one sweep body per iteration: the registry routes it
	// to the ttm engine, which prices the body exactly, and the worker
	// count comes from the cost model. The parallel solver runs one
	// worker per rank and is not planned.
	maxRank := 0
	for _, r := range ranks {
		if r > maxRank {
			maxRank = r
		}
	}
	var planInfo *obs.PlanInfo
	workers := 0
	if *gridFlag == "" {
		prob := plan.Problem{Dims: dims, R: maxRank, Mode: plan.AllModes, Ranks: ranks, Reuses: *iters}
		choice, _, err := plan.Auto(prob)
		if err != nil {
			fatal(err)
		}
		choice.Apply()
		planInfo, workers = choice.PlanInfo(), choice.Workers
		fmt.Printf("plan: engine=%s workers=%d gemm blocks kc=%d mc=%d\n",
			choice.Engine, choice.Workers, choice.GemmKC, choice.GemmMC)
	}

	// Synthetic data: random core expanded by orthonormal factors,
	// plus noise.
	factors, err := tucker.InitFactors(dims, ranks, *seed)
	if err != nil {
		fatal(err)
	}
	core := tensor.RandomDense(*seed+1, ranks...)
	x := &tucker.Model{Core: core, Factors: factors}
	data := x.Reconstruct()
	tensor.AddNoise(data, *seed+2, *noise)

	var col *obs.Collector
	if *obsFlag || *obsJSON != "" {
		col = obs.New(0)
		obs.Enable(col)
		defer obs.Disable()
	}
	report := func(algo string, mach obs.Machine, custom func(*obs.Report)) {
		if col == nil {
			return
		}
		// Rank reported as the largest multilinear rank; mode -1 marks
		// an all-modes sweep.
		rep := obs.NewReport("tucker", algo, dims, maxRank, -1, mach)
		rep.Plan = planInfo
		if custom != nil {
			custom(rep)
		}
		rep.FillFromCollector(col)
		emitReport(rep, *obsFlag, *obsJSON)
	}

	if *gridFlag == "" {
		model, trace, err := tucker.Decompose(data, tucker.Options{Ranks: ranks, MaxIters: *iters, Tol: math.Inf(-1), Workers: workers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential HOOI: dims=%v ranks=%v\n", dims, ranks)
		for _, e := range trace {
			fmt.Printf("  sweep %d: fit %.8f\n", e.Iter, e.Fit)
		}
		fmt.Printf("final fit %.8f\n", model.Fit)
		report("hooi", obs.Machine{Workers: workers}, nil)
		return
	}

	shape, err := parseInts(*gridFlag)
	if err != nil {
		fatal(err)
	}
	res, err := tucker.DecomposeParallel(data, shape, tucker.Options{Ranks: ranks, MaxIters: *iters, Tol: math.Inf(-1)}, *seed+3)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parallel HOOI: dims=%v ranks=%v grid=%v\n", dims, ranks, shape)
	for _, e := range res.Trace {
		fmt.Printf("  sweep %d: fit %.8f\n", e.Iter, e.Fit)
	}
	fmt.Printf("final fit %.8f\n", res.Model.Fit)
	fmt.Printf("\ncommunication per processor (max over ranks):\n")
	fmt.Printf("  all-reduces: %d words (projections, norm)\n", res.MaxWords())
	p := 1
	for _, s := range shape {
		p *= s
	}
	// The parallel report's headline figure is the per-processor
	// collective traffic, joined against the Multi-TTM lower bounds
	// (arXiv:2207.10437) for the sweeps the run executed.
	report("hooi-parallel", obs.Machine{P: p}, func(rep *obs.Report) {
		rep.MeasuredWords = res.MaxWords()
		rep.JoinMultiTTMBounds(ranks, float64(p), len(res.Trace))
	})
}

// emitReport writes the report per the -obs / -obs-json flags.
func emitReport(rep *obs.Report, human bool, jsonPath string) {
	if human {
		rep.Format(os.Stdout)
	}
	if jsonPath == "" {
		return
	}
	if jsonPath == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// fatal prints errorLine(err) and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(2)
}

// errorLine names the command once: the tucker package's errors already
// start with "tucker: ", and every other error gets that prefix.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "tucker: ") {
		return msg
	}
	return "tucker: " + msg
}
