// Command mttkrp runs a single MTTKRP on a generated dense tensor with
// a chosen algorithm, verifies the result against the direct reference
// kernel, and prints the measured communication next to the relevant
// lower bounds. The default -algo auto lets the cost-model planner
// pick the shared-memory engine; -algo fast or fast32 fixes it.
//
// With -obs / -obs-json the run is instrumented through internal/obs:
// the report joins the measured words moved against the paper's lower
// bounds (Theorem 4.1 / Fact 4.1 sequentially, Theorems 4.2/4.3 and
// Eq. (14) in parallel) and -obs-maxratio / -obs-minratio turn the
// measured/bound ratio into an exit-code assertion for CI.
//
// Usage:
//
//	mttkrp -dims 16,16,16 -r 8 -mode 0 -algo blocked -m 512 -obs
//	mttkrp -dims 16,16,16 -r 8 -mode 1 -algo stationary -p 8 -obs-json -
//	mttkrp -dims 128,128,128 -r 16 -mode 1 -algo fast -workers 0
//	mttkrp -dims 128,128,128 -r 16 -mode 1 -dtype f32
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/seq"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func main() {
	dimsFlag := flag.String("dims", "16,16,16", "tensor dimensions, comma separated")
	r := flag.Int("r", 8, "rank R")
	mode := flag.Int("mode", 0, "MTTKRP mode n")
	algo := flag.String("algo", "auto",
		"algorithm: auto (cost-model planner) | fast | fast32 (with -dtype f32) | unblocked | blocked | seq-matmul | stationary | general | par-matmul")
	m := flag.Int64("m", 512, "fast memory words (sequential algorithms)")
	p := flag.Int("p", 8, "processors (parallel algorithms)")
	workers := flag.Int("workers", 0, "goroutine ceiling for the planned engines (0 = GOMAXPROCS)")
	dtype := flag.String("dtype", "f64", "storage precision for the planned engines: f64 | f32 (accumulation stays float64)")
	seed := flag.Int64("seed", 42, "workload seed")
	obsFlag := flag.Bool("obs", false, "print the instrumented observability report")
	obsJSON := flag.String("obs-json", "", "write the observability report as JSON to this path (- for stdout)")
	obsMax := flag.Float64("obs-maxratio", 0, "fail (exit 3) when the measured/best-bound ratio exceeds this (0 = off)")
	obsMin := flag.Float64("obs-minratio", 0, "fail (exit 3) when the measured/best-bound ratio is below this (0 = off)")
	traceOut := flag.String("trace", "", "write a flight-recorder Chrome trace (JSON) to this path")
	flag.Parse()

	dims, err := parseDims(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	inst, err := workload.Generate(workload.Spec{Dims: dims, R: *r, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if *mode < 0 || *mode >= len(dims) {
		fatal(fmt.Errorf("mode %d out of range", *mode))
	}
	observing := *obsFlag || *obsJSON != "" || *obsMax > 0 || *obsMin > 0
	var col *obs.Collector
	if observing {
		col = obs.New(0)
		obs.Enable(col)
		defer obs.Disable()
	}
	var rep *obs.Report
	runStart := time.Now()

	// -trace records a flight-recorder timeline of whichever path runs.
	// Parallel algorithms get one process row per simulated rank; the
	// sequential/shared-memory paths render on the single engine row.
	if *traceOut != "" {
		ranks := 0
		switch *algo {
		case "stationary", "general", "par-matmul":
			ranks = *p
		}
		flush := flight.StartTrace(*traceOut, ranks)
		defer func() {
			if err := flush(); err != nil {
				fatal(err)
			}
		}()
	}

	// auto lets the planner pick the engine and worker count; a named
	// engine still plans workers and block sizes.
	switch *algo {
	case "auto", "fast", "fast32":
		runPlanned(*algo, inst, dims, *r, *mode, *dtype, *workers, *m,
			runStart, observing, col, *obsFlag, *obsJSON, *obsMax, *obsMin)
		return
	}

	prob := bounds.Problem{Dims: dims, R: *r}
	ref := seq.Ref(inst.X, inst.Factors, *mode)
	fmt.Printf("MTTKRP: dims=%v R=%d mode=%d algo=%s\n", dims, *r, *mode, *algo)
	switch *algo {
	case "unblocked", "blocked", "seq-matmul":
		var sa core.SeqAlgorithm
		switch *algo {
		case "unblocked":
			sa = core.SeqUnblocked
		case "blocked":
			sa = core.SeqBlocked
		default:
			sa = core.SeqViaMatmul
		}
		res, err := core.Sequential(inst.X, inst.Factors, *mode, core.SeqOptions{Algorithm: sa, M: *m})
		if err != nil {
			fatal(err)
		}
		check(res.B.EqualApprox(ref, 1e-9))
		fmt.Printf("machine: two-level memory, M = %d words\n", *m)
		fmt.Printf("loads   = %d\nstores  = %d\nwords   = %d\npeak    = %d\nflops   = %d\n",
			res.Counts.Loads, res.Counts.Stores, res.Counts.Words(), res.Counts.Peak, res.Flops)
		fmt.Printf("lower bound (Thm 4.1):  %.4g\n", bounds.SeqMemDependent(prob, float64(*m)))
		fmt.Printf("lower bound (Fact 4.1): %.4g\n", bounds.SeqTrivial(prob, float64(*m)))
		if observing {
			rep = obs.NewReport("mttkrp", *algo, dims, *r, *mode, obs.Machine{M: *m})
			// The memory simulator counts loads and stores exactly; the
			// collector contributes the phase timings.
			rep.MeasuredWords = res.Counts.Words()
			rep.Counters = obs.Totals{
				WordsRead:    res.Counts.Loads,
				WordsWritten: res.Counts.Stores,
				Flops:        res.Flops,
			}
			rep.Phases = col.PhaseStats()
			rep.JoinSeqBounds(float64(*m))
		}

	case "stationary", "general", "par-matmul":
		var pa core.ParAlgorithm
		switch *algo {
		case "stationary":
			pa = core.ParStationary
		case "general":
			pa = core.ParGeneral
		default:
			pa = core.ParViaMatmul
		}
		res, err := core.Parallel(inst.X, inst.Factors, *mode, core.ParOptions{Algorithm: pa, P: *p})
		if err != nil {
			fatal(err)
		}
		check(res.B.EqualApprox(ref, 1e-9))
		fmt.Printf("machine: simulated distributed memory, P = %d\n", *p)
		fmt.Printf("max words/proc (sends+recvs) = %d\n", res.MaxWords())
		fmt.Printf("max sends/proc               = %d\n", res.MaxSent())
		fmt.Printf("total sends                  = %d\n", res.TotalSent())
		fmt.Printf("lower bound (Thm 4.2): %.4g\n", bounds.ParMemIndependent1(prob, float64(*p), 1, 1))
		fmt.Printf("lower bound (Thm 4.3): %.4g\n", bounds.ParMemIndependent2(prob, float64(*p), 1, 1))
		if observing {
			rep = obs.NewReport("mttkrp", *algo, dims, *r, *mode, obs.Machine{P: *p})
			rep.MeasuredWords = res.MaxWords()
			rep.FillFromCollector(col)
			rep.JoinParBounds(float64(*p), 0, 1)
			joinAlgWords(rep, *algo, dims, *r, res.Grid)
		}

	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	if rep != nil {
		rep.WallNs = int64(time.Since(runStart))
		finishObs(rep, *algo, *obsFlag, *obsJSON, *obsMax, *obsMin)
	}
}

// runPlanned is the shared-memory engine path: plan, apply the
// tunables, prepare the chosen engine, run one warm pass and one timed
// steady-state pass, verify against the reference kernel, and report
// the plan next to what was measured.
func runPlanned(engineName string, inst *workload.Instance, dims []int, r, mode int,
	dtype string, workers int, m int64, runStart time.Time,
	observing bool, col *obs.Collector, human bool, jsonPath string, maxRatio, minRatio float64) {

	prob := plan.Problem{Dims: dims, R: r, Mode: mode, MaxWorkers: workers}
	switch dtype {
	case "f64":
		prob.DType = plan.F64
	case "f32":
		prob.DType = plan.F32
	default:
		fatal(fmt.Errorf("unknown dtype %q (want f64 or f32)", dtype))
	}

	cal := plan.LoadOrMeasure(plan.DefaultCachePath())
	var choice plan.Choice
	var err error
	if engineName == "auto" {
		choice, err = plan.Plan(prob, cal)
	} else {
		choice, err = plan.PlanEngine(engineName, prob, cal)
	}
	if err != nil {
		fatal(err)
	}
	choice.Apply()
	eng, _ := plan.Lookup(choice.Engine)
	pinst := &plan.Instance{X: inst.X, Factors: inst.Factors}
	if err := eng.Prepare(prob, pinst); err != nil {
		fatal(err)
	}

	fmt.Printf("MTTKRP: dims=%v R=%d mode=%d engine=%s (planned)\n", dims, r, mode, choice.Engine)
	fmt.Printf("plan: workers=%d kc=%d mc=%d predicted=%v\n",
		choice.Workers, choice.GemmKC, choice.GemmMC,
		time.Duration(choice.Predicted.Seconds*1e9))

	var res plan.Result
	eng.Run(prob, pinst, &res, choice.Workers) // warm: grows outputs and workspaces

	// Reference results and timing come before the collector reset so
	// the measured counters cover exactly one steady-state engine pass.
	t0 := time.Now()
	ref := seq.Ref(inst.X, inst.Factors, mode)
	tRef := time.Since(t0)
	var ref32 *tensor.Matrix
	if prob.DType == plan.F32 {
		// The f32 path's reference runs on the exactly-widened float32
		// inputs; the only extra rounding allowed is the float32 store.
		wide := make([]*tensor.Matrix, len(pinst.Factors32))
		for k, f := range pinst.Factors32 {
			wide[k] = f.ToMatrix()
		}
		ref32 = seq.Ref(pinst.X32.ToDense(), wide, mode)
	}

	if observing {
		col.Reset() // measure the steady-state run only
	}
	t0 = time.Now()
	eng.Run(prob, pinst, &res, choice.Workers)
	tEng := time.Since(t0)

	if prob.DType == plan.F32 {
		scale := 1e-5 * float64(inst.X.Elems()) / float64(dims[mode])
		check(res.B32.MaxAbsDiff(ref32) <= scale)
	} else {
		check(res.B.EqualApprox(ref, 1e-9))
	}
	fmt.Printf("engine time    = %v\n", tEng)
	fmt.Printf("reference time = %v\n", tRef)
	fmt.Printf("speedup        = %.2fx\n", float64(tRef)/float64(tEng))

	if observing {
		rep := obs.NewReport("mttkrp", "auto:"+choice.Engine, dims, r, mode,
			obs.Machine{M: m, Workers: choice.Workers})
		rep.WordBytes = prob.DType.WordBytes()
		rep.Plan = choice.PlanInfo()
		rep.FillFromCollector(col)
		rep.JoinSeqBounds(float64(m))
		rep.WallNs = int64(time.Since(runStart))
		finishObs(rep, "auto", human, jsonPath, maxRatio, minRatio)
	}
}

// joinAlgWords adds the closed-form per-processor send cost of the
// algorithm actually run — Eq. (14) for Algorithm 3, Eq. (18) for
// Algorithm 4 — evaluated on the grid the run used.
func joinAlgWords(rep *obs.Report, algo string, dims []int, r int, grid []int) {
	if len(grid) == 0 {
		return
	}
	fdims := make([]float64, len(dims))
	for i, d := range dims {
		fdims[i] = float64(d)
	}
	shape := make([]float64, len(grid))
	for i, g := range grid {
		shape[i] = float64(g)
	}
	model := costmodel.Model{Dims: fdims, R: float64(r)}
	switch algo {
	case "stationary":
		rep.JoinBound("eq14-alg3-sends", model.Alg3Words(shape))
	case "general":
		rep.JoinBound("eq18-alg4-sends", model.Alg4Words(shape))
	}
}

// finishObs emits the report and enforces the CI ratio gates against
// the best applicable bound.
func finishObs(rep *obs.Report, algo string, human bool, jsonPath string, maxRatio, minRatio float64) {
	if err := rep.Emit(os.Stdout, human, jsonPath); err != nil {
		fatal(err)
	}
	if maxRatio <= 0 && minRatio <= 0 {
		return
	}
	if rep.MeasuredWords <= 0 {
		fmt.Fprintf(os.Stderr, "mttkrp: obs gate: measured words = %d (instrumentation broken?)\n", rep.MeasuredWords)
		os.Exit(3)
	}
	best := "seq-best"
	switch algo {
	case "stationary", "general", "par-matmul":
		best = "par-best"
	}
	ratio := rep.Ratio(best)
	//repro:bitwise Ratio returns exactly 0 for vacuous bounds
	if ratio == 0 {
		fmt.Fprintf(os.Stderr, "mttkrp: obs gate: bound %q is vacuous for this configuration\n", best)
		os.Exit(3)
	}
	if maxRatio > 0 && ratio > maxRatio {
		fmt.Fprintf(os.Stderr, "mttkrp: obs gate: measured/%s = %.3f exceeds -obs-maxratio %.3f\n", best, ratio, maxRatio)
		os.Exit(3)
	}
	if minRatio > 0 && ratio < minRatio {
		fmt.Fprintf(os.Stderr, "mttkrp: obs gate: measured/%s = %.3f below -obs-minratio %.3f\n", best, ratio, minRatio)
		os.Exit(3)
	}
	fmt.Printf("obs gate: measured/%s = %.3f within [%g, %g]\n", best, ratio,
		minRatio, maxRatio)
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("need at least 2 dimensions, got %q", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}

func check(ok bool) {
	if ok {
		fmt.Println("result: verified against reference kernel")
	} else {
		fmt.Println("result: MISMATCH against reference kernel")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mttkrp:", err)
	os.Exit(2)
}
