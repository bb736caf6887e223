// Command cpals computes a CP decomposition of a synthetic low-rank
// tensor with alternating least squares, either sequentially or on the
// simulated distributed machine, reporting the fit trajectory and —
// in the parallel case — how communication splits between MTTKRP and
// everything else (the paper's motivating observation).
//
// Usage:
//
//	cpals -dims 16,16,16 -rank 4 -truerank 4 -noise 0.01 -iters 30
//	cpals -dims 16,16,16 -rank 4 -engine tree -workers 4
//	cpals -dims 16,16,16 -rank 4 -grid 2,2,2
//
// The sequential solver picks its MTTKRP strategy with -engine:
// "independent" runs one KRP-splitting kernel call per mode,
// "tree" runs dimension-tree ALS with the GEMM-based multi-MTTKRP
// engine (prefix-partial reuse across modes) and reports the flop
// saving. -workers caps the goroutines used by either engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cpals"
	"repro/internal/dimtree"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	dimsFlag := flag.String("dims", "16,16,16", "tensor dimensions")
	rank := flag.Int("rank", 4, "decomposition rank")
	trueRank := flag.Int("truerank", 4, "ground-truth rank of the synthetic tensor")
	noise := flag.Float64("noise", 0.01, "uniform noise half-width added to the synthetic tensor")
	iters := flag.Int("iters", 30, "maximum ALS sweeps")
	tol := flag.Float64("tol", 1e-8, "fit-improvement stopping tolerance")
	gridFlag := flag.String("grid", "", "processor grid (e.g. 2,2,2); empty = sequential")
	engine := flag.String("engine", "auto", "sequential MTTKRP engine: auto (cost-model planner) | independent | tree")
	workers := flag.Int("workers", 0, "MTTKRP goroutines (0 = package default)")
	seed := flag.Int64("seed", 7, "seed")
	obsFlag := flag.Bool("obs", false, "print the instrumented observability report")
	obsJSON := flag.String("obs-json", "", "write the observability report as JSON to this path (- for stdout)")
	traceOut := flag.String("trace", "", "write a flight-recorder Chrome trace (JSON) to this path")
	flag.Parse()

	if *engine != "auto" && *engine != "independent" && *engine != "tree" {
		fatal(fmt.Errorf("unknown -engine %q (want auto, independent, or tree)", *engine))
	}

	dims, err := parseInts(*dimsFlag)
	if err != nil {
		fatal(err)
	}

	// -trace starts before the planner runs so the trace carries the
	// plan instant; parallel runs get one process row per rank.
	if *traceOut != "" {
		ranks := 0
		if *gridFlag != "" {
			shape, err := parseInts(*gridFlag)
			if err != nil {
				fatal(err)
			}
			ranks = 1
			for _, s := range shape {
				ranks *= s
			}
		}
		flush := flight.StartTrace(*traceOut, ranks)
		defer func() {
			if err := flush(); err != nil {
				fatal(err)
			}
		}()
	}

	// -engine auto (the default) asks the planner to choose between the
	// per-mode independent kernels and the dimension-tree engine for
	// the sequential solver, amortizing over the full ALS run (every
	// sweep recomputes all modes). The parallel solver has one MTTKRP
	// schedule, a dimension tree on every rank's block, so on a grid
	// nothing is planned and -engine must stay auto.
	var planInfo *obs.PlanInfo
	if *engine == "auto" && *gridFlag == "" {
		prob := plan.Problem{Dims: dims, R: *rank, Mode: plan.AllModes,
			MaxWorkers: *workers, Reuses: *iters}
		choice, _, err := plan.Auto(prob)
		if err != nil {
			fatal(err)
		}
		choice.Apply()
		if choice.Engine == "tree" {
			*engine = "tree"
		} else {
			*engine = "independent"
		}
		planInfo = choice.PlanInfo()
		fmt.Printf("plan: engine=%s workers=%d kc=%d mc=%d\n",
			*engine, choice.Workers, choice.GemmKC, choice.GemmMC)
	}
	inst, err := workload.Generate(workload.Spec{Dims: dims, R: *trueRank, Seed: *seed, Noise: *noise})
	if err != nil {
		fatal(err)
	}
	opts := cpals.Options{R: *rank, MaxIters: *iters, Tol: *tol, Seed: *seed + 100, Workers: *workers}

	var col *obs.Collector
	if *obsFlag || *obsJSON != "" {
		col = obs.New(0)
		obs.Enable(col)
		defer obs.Disable()
	}
	report := func(algo string, mach obs.Machine, join func(*obs.Report)) {
		if col == nil {
			return
		}
		rep := obs.NewReport("cpals", algo, dims, *rank, -1, mach)
		rep.Plan = planInfo
		rep.FillFromCollector(col)
		if join != nil {
			join(rep)
		}
		emitReport(rep, *obsFlag, *obsJSON)
	}

	if *gridFlag == "" {
		if *engine == "tree" {
			model, trace, flops, err := cpals.DecomposeTree(inst.X, opts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("sequential CP-ALS (dimension-tree engine): dims=%v rank=%d (truth rank %d, noise %.3g)\n",
				dims, *rank, *trueRank, *noise)
			printTrace(trace)
			fmt.Printf("final fit: %.6f\n", model.Fit)
			naive := int64(len(trace)) * dimtree.NaiveFlops(dims, *rank)
			fmt.Printf("MTTKRP flops: %d (vs %d for independent atomic per-mode kernels, %.2fx saving)\n",
				flops, naive, float64(naive)/float64(flops))
			report("tree", obs.Machine{Workers: *workers}, nil)
			return
		}
		model, trace, err := cpals.Decompose(inst.X, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential CP-ALS: dims=%v rank=%d (truth rank %d, noise %.3g)\n",
			dims, *rank, *trueRank, *noise)
		printTrace(trace)
		fmt.Printf("final fit: %.6f\n", model.Fit)
		report("independent", obs.Machine{Workers: *workers}, nil)
		return
	}

	if *engine != "auto" {
		fatal(fmt.Errorf("-engine %s applies to the sequential solver only (drop -grid)", *engine))
	}

	shape, err := parseInts(*gridFlag)
	if err != nil {
		fatal(err)
	}
	res, err := cpals.DecomposeParallel(inst.X, shape, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("parallel CP-ALS: dims=%v rank=%d grid=%v\n", dims, *rank, shape)
	printTrace(res.Trace)
	fmt.Printf("final fit: %.6f\n", res.Model.Fit)
	mt, ot := res.MaxMTTKRPWords(), res.MaxOtherWords()
	fmt.Printf("\ncommunication per processor (max over ranks):\n")
	fmt.Printf("  MTTKRP collectives: %d words\n", mt)
	fmt.Printf("  everything else:    %d words (Gram all-reduces, fit scalars)\n", ot)
	if mt+ot > 0 {
		fmt.Printf("  MTTKRP share:       %.1f%%\n", 100*float64(mt)/float64(mt+ot))
	}
	p := 1
	for _, s := range shape {
		p *= s
	}
	// The parallel report's headline figure is the per-processor
	// MTTKRP collective traffic, joined against the parallel bounds
	// summed over the N MTTKRPs of every sweep the run executed.
	report("parallel", obs.Machine{P: p}, func(rep *obs.Report) {
		rep.MeasuredWords = mt
		rep.JoinParBounds(float64(p), 0, len(res.Trace)*len(dims))
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

func printTrace(trace []cpals.TraceEntry) {
	for _, e := range trace {
		fmt.Printf("  iter %3d  fit %.8f\n", e.Iter, e.Fit)
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

// errorLine names the command once: the cpals package's errors already
// start with "cpals: ", and every other error gets that prefix.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "cpals: ") {
		return msg
	}
	return "cpals: " + msg
}
