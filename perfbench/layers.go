package main

// The traced run: per-layer metrics. Each layer is timed by calling its
// public functions at the workload's own shapes; computed words, flops
// and phase times come from the existing obs collector, and message
// counts from the flight recorder. Nothing here adds tracing inside the
// program.

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bounds"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/simd"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/tucker"
)

// layerRun collects the per-layer metrics of one traced run.
type layerRun struct {
	budget time.Duration
	cal    *plan.Calibration
	vals   map[string]metric
	t      *tally
	ref    outcome

	// From the interleaved untraced/traced ops.
	untraced, traced []float64 // op wall times, seconds
	phaseNs          map[string]int64
	tracedNs         int64   // summed wall time of the traced ops
	allocPerOp       float64 // bytes per untraced op
}

func (l *layerRun) set(name string, v float64, unit string) { l.vals[name] = metric{v, unit} }

// share returns the named phases' summed time over the traced ops' wall
// time.
func (l *layerRun) share(phases ...string) float64 {
	var ns int64
	for _, p := range phases {
		ns += l.phaseNs[p]
	}
	return float64(ns) / float64(l.tracedNs)
}

func (l *layerRun) slice(frac float64) time.Duration {
	return time.Duration(frac * float64(l.budget))
}

func perLayer(b bench, budget time.Duration, calDir string) (*summary, error) {
	var t tally
	if err := b.setup(filepath.Join(calDir, "setup.json")); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ref := b.result()
	if p := b.planLine(); p != "" {
		fmt.Printf("plan: %s\n", p)
	}
	l := &layerRun{budget: budget, vals: map[string]metric{}, t: &t, ref: ref}

	// plan.calibrate_ms on every workload; the last measurement is the
	// calibration the layer metrics below are judged against.
	var cal *plan.Calibration
	l.set("plan.calibrate_ms", 1e3*timeReps(l.slice(0.05), 3, func() { cal = plan.Measure() }), "ms")
	l.cal = cal

	l.interleave(b)
	if err := b.layers(l); err != nil {
		return nil, err
	}
	l.set("obs.overhead_frac", median(l.traced)/median(l.untraced)-1, "fraction")
	printMetrics(l.vals)
	return &summary{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: l.vals}, nil
}

// interleave alternates untraced ops and ops traced by a fresh obs
// collector, recording both wall times, the traced phase times, and
// the untraced ops' allocations.
func (l *layerRun) interleave(b bench) {
	col := obs.New(0)
	var allocBytes uint64
	start := time.Now()
	for len(l.traced) < 5 || time.Since(start) < l.slice(0.3) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := b.op(allCores())
		l.untraced = append(l.untraced, time.Since(t0).Seconds())
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		l.t.record("untraced op", l.same(b, err))

		obs.Enable(col)
		t0 = time.Now()
		err = b.op(allCores())
		d := time.Since(t0)
		obs.Disable()
		l.traced = append(l.traced, d.Seconds())
		l.tracedNs += d.Nanoseconds()
		l.t.record("traced op", l.same(b, err))
	}
	l.allocPerOp = float64(allocBytes) / float64(len(l.untraced))
	l.phaseNs = map[string]int64{}
	for _, ps := range col.PhaseStats() {
		l.phaseNs[ps.Phase] = ps.Nanos
	}
	fmt.Printf("traced: %d untraced and %d traced ops; phase ns:", len(l.untraced), len(l.traced))
	for _, ps := range col.PhaseStats() {
		fmt.Printf(" %s=%d", ps.Phase, ps.Nanos)
	}
	fmt.Println()
}

func (l *layerRun) same(b bench, err error) error {
	if err != nil {
		return err
	}
	if b.result().digest != l.ref.digest {
		return fmt.Errorf("result is not bitwise equal to the warm-up result")
	}
	return nil
}

// simdLayer times the GEMM register tile over panel columns of length
// kc, and the batched CSF leaf fold at rank R over fiber gathered rows
// of a rows x R panel.
func (l *layerRun) simdLayer(kc, R, fiber, rows int) {
	v := make([][]float64, 8)
	for i := range v {
		v[i] = make([]float64, kc)
		for j := range v[i] {
			v[i][j] = 1 / float64(i+j+1)
		}
	}
	const calls = 1000
	s := timeReps(l.slice(0.03), 5, func() {
		for i := 0; i < calls; i++ {
			simd.Axpy4x4(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7],
				1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9, 8e-9,
				9e-9, 1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9)
		}
	})
	l.set("simd.axpy4x4_gflops", calls*32*float64(kc)/s/1e9, "GFLOP/s")

	if fiber < 1 {
		fiber = 1
	}
	dst := make([]float64, R)
	pk := make([]float64, rows*R)
	for i := range pk {
		pk[i] = 1 / float64(i+1)
	}
	idx := make([]int32, fiber)
	vals := make([]float64, fiber)
	for c := range idx {
		idx[c] = int32((c * 7919) % rows)
		vals[c] = 1e-9 * float64(c+1)
	}
	s = timeReps(l.slice(0.03), 5, func() {
		for i := 0; i < calls; i++ {
			simd.AxpyRows(dst, pk, idx, vals)
		}
	})
	l.set("simd.axpyrows_ns", s/calls*1e9, "ns")
	fmt.Printf("layer simd: axpy4x4 panel length %d; axpyrows R=%d fiber=%d rows=%d\n", kc, R, fiber, rows)
}

// gemmLayer times linalg.GemmNN at m x k x n with the applied KC/MC,
// against the calibrated single-worker peak times the worker count.
func (l *layerRun) gemmLayer(m, k, n int) {
	a := tensor.RandomMatrix(1, m, k).Data()
	bb := tensor.RandomMatrix(2, k, n).Data()
	c := make([]float64, m*n)
	w := allCores()
	s := timeReps(l.slice(0.05), 3, func() { linalg.GemmNN(c, a, bb, m, k, n, w) })
	gf := 2 * float64(m) * float64(k) * float64(n) / s / 1e9
	l.set("linalg.gemm_gflops", gf, "GFLOP/s")
	l.set("linalg.gemm_frac_peak", gf*1e9/(l.cal.FlopsSIMD*float64(w)), "fraction")
	kc, mc := linalg.BlockSizes()
	fmt.Printf("layer linalg: gemm %dx%dx%d kc=%d mc=%d workers=%d\n", m, k, n, kc, mc, w)
}

// eigLayer times linalg.LeadingEigvecs on the workload's mode Gram.
func (l *layerRun) eigLayer(g *tensor.Matrix, r int) {
	s := timeReps(l.slice(0.05), 3, func() {
		_, err := linalg.LeadingEigvecs(g, r)
		if err != nil {
			l.t.record("eigensolve", err)
		}
	})
	l.set("linalg.eig_ms", s*1e3, "ms")
	fmt.Printf("layer linalg: eig %dx%d leading %d\n", g.Rows(), g.Cols(), r)
}

// solveLayer times the CP-ALS normal-equations solve exactly as cpals
// calls it: V = Hadamard of the other N-1 Grams, A = (V \ B^T)^T.
func (l *layerRun) solveLayer(rows, R, N int) {
	v := tensor.NewMatrix(R, R)
	v.Fill(1)
	for k := 0; k < N-1; k++ {
		v = tensor.Hadamard(v, linalg.Gram(tensor.RandomMatrix(int64(10+k), rows, R)))
	}
	b := tensor.RandomMatrix(20, rows, R)
	solve := func() {
		xt, err := linalg.SolveSPD(v, linalg.Transpose(b))
		if err != nil {
			l.t.record("normal-equations solve", err)
			return
		}
		_ = linalg.Transpose(xt)
	}
	l.set("linalg.solve_us", timeReps(l.slice(0.03), 10, solve)*1e6, "us")
	allocs := allocsPerCall(100, solve)
	l.set("linalg.solve_allocs", allocs, "count")
	fmt.Printf("layer linalg: solve %dx%d rhs, R=%d\n", rows, R, R)
}

// engineLayer times one planned engine pass at all cores and at one
// core, and reads its computed flops and words from obs. bound is the
// lower bound on the words of one pass. phases name the engine's obs
// phases inside an op, for engine.share (scaled by 1/ranks where the
// phase time sums over simulated ranks).
func (l *layerRun) engineLayer(prob plan.Problem, eng plan.Engine, inst *plan.Instance, bound float64, ranks int, phases ...string) float64 {
	res := &plan.Result{}
	w := allCores()
	eng.Run(prob, inst, res, w)
	pass := timeReps(l.slice(0.08), 5, func() { eng.Run(prob, inst, res, w) })
	procs := runtime.GOMAXPROCS(1)
	pass1 := timeReps(l.slice(0.08), 5, func() { eng.Run(prob, inst, res, 1) })
	runtime.GOMAXPROCS(procs)

	col := obs.New(0)
	obs.Enable(col)
	eng.Run(prob, inst, res, w)
	obs.Disable()
	tot := col.Totals()
	allocs := allocsPerCall(5, func() { eng.Run(prob, inst, res, w) })

	l.set("engine.pass_ms", pass*1e3, "ms")
	l.set("engine.pass_ms_1core", pass1*1e3, "ms")
	l.set("engine.speedup", pass1/pass, "x")
	l.set("engine.gflops", float64(tot.Flops)/pass/1e9, "GFLOP/s")
	l.set("engine.allocs_per_pass", allocs, "count")
	l.set("engine.share", l.share(phases...)/float64(ranks), "fraction")
	l.set("engine.words", float64(tot.Words()), "words")
	l.set("engine.words_over_bound", float64(tot.Words())/bound, "ratio")
	fmt.Printf("layer engine: %s dims=%v R=%d mode=%d workers=%d; words computed by obs, bound %.6g words\n",
		eng.Name(), prob.Dims, prob.R, prob.Mode, w, bound)
	return pass
}

// planLayer times planning, and Engine.Prepare on a fresh instance with
// base's operands, and compares the plan's predicted seconds (Reuses
// passes plus preparation) with the measured ones.
func (l *layerRun) planLayer(prob plan.Problem, eng plan.Engine, base *plan.Instance, predicted, pass float64) {
	l.set("plan.plan_us", timeReps(l.slice(0.02), 20, func() {
		if _, err := plan.Plan(prob, l.cal); err != nil {
			l.t.record("plan", err)
		}
	})*1e6, "us")
	prep := timeReps(l.slice(0.05), 3, func() {
		inst := &plan.Instance{X: base.X, COO: base.COO, Factors: base.Factors}
		if err := eng.Prepare(prob, inst); err != nil {
			l.t.record("prepare", err)
		}
	})
	l.set("plan.prepare_ms", prep*1e3, "ms")
	reuses := math.Max(1, float64(prob.Reuses))
	l.set("plan.pred_over_meas", predicted/(reuses*pass+prep), "ratio")
}

// solverLayer reports the sweep from the interleaved ops: time per
// sweep, and the Gram, solve and fit phases' shares of the traced ops.
func (l *layerRun) solverLayer(sweeps int) {
	l.set("solver.sweep_ms", median(l.untraced)/float64(sweeps)*1e3, "ms")
	l.set("solver.sweeps", float64(sweeps), "count")
	l.set("solver.solve_share", l.share("solve"), "fraction")
	l.set("solver.gram_share", l.share("gram"), "fraction")
	l.set("solver.fit_share", l.share("fit"), "fraction")
	l.set("solver.alloc_kb_per_sweep", l.allocPerOp/float64(sweeps)/1024, "KiB")
}

// noComm sets the comm metrics of the shared-memory workloads, which
// send no messages.
func (l *layerRun) noComm() {
	l.set("comm.mttkrp_words_max", 0, "words")
	l.set("comm.other_words_max", 0, "words")
	l.set("comm.mttkrp_share", 0, "fraction")
	l.set("comm.msgs_max", 0, "count")
	l.set("comm.local_share", 0, "fraction")
}

// mttkrpBound is the sequential lower bound on the words of one
// MTTKRP at M = the calibrated cache budget, floored by the compulsory
// traffic of reading every input once where the memory-dependent
// bound is vacuous (the operands fit in M).
func (l *layerRun) mttkrpBound(dims []int, R int) float64 {
	p := bounds.Problem{Dims: dims, R: R}
	return math.Max(bounds.SeqBest(p, float64(l.cal.CacheWords)), bounds.SeqTrivial(p, 0))
}

func elems(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// ---- per-workload layer shapes ----

func (w *cpDense) layers(l *layerRun) error {
	dims := w.x.Dims()
	l.simdLayer(w.choice.GemmKC, cpRank, dims[2], dims[2])
	// The plan's dominant GEMM: kept mode 0 against the rest, at R.
	l.gemmLayer(dims[0], elems(dims)/dims[0], cpRank)
	g := tensor.NewMatrix(dims[0], dims[0])
	ttm.GramInto(g, w.x, 0, allCores(), ttm.NewWorkspace())
	l.eigLayer(g, cpRank)
	l.solveLayer(dims[0], cpRank, len(dims))

	eng, ok := plan.Lookup(w.choice.Engine)
	if !ok {
		return fmt.Errorf("unknown engine %q", w.choice.Engine)
	}
	inst := &plan.Instance{X: w.x, Factors: tensor.RandomFactors(w.seed+3, dims, cpRank)}
	if err := eng.Prepare(w.prob, inst); err != nil {
		return err
	}
	bound := float64(len(dims)) * l.mttkrpBound(dims, cpRank)
	phases := []string{"kernel"}
	if w.choice.Engine == "tree" {
		phases = []string{"tree-root", "tree-partial"}
	}
	pass := l.engineLayer(w.prob, eng, inst, bound, 1, phases...)
	l.planLayer(w.prob, eng, inst, w.choice.Predicted.Seconds, pass)
	l.solverLayer(cpSweeps)
	l.noComm()
	return nil
}

func (w *tuckerBench) layers(l *layerRun) error {
	dims := w.x.Dims()
	N := len(dims)
	l.simdLayer(w.choice.GemmKC, tuckerRank, dims[N-1], dims[N-1])
	// The plan's dominant GEMM: the first chain step contracts mode 0
	// of the whole tensor.
	l.gemmLayer(elems(dims)/dims[0], dims[0], w.ranks[0])
	g := tensor.NewMatrix(dims[0], dims[0])
	ttm.GramInto(g, w.x, 0, allCores(), ttm.NewWorkspace())
	l.eigLayer(g, tuckerRank)
	l.solveLayer(dims[0], tuckerRank, N)

	eng, ok := plan.Lookup(w.choice.Engine)
	if !ok {
		return fmt.Errorf("unknown engine %q", w.choice.Engine)
	}
	fs, err := tucker.InitFactors(dims, w.ranks, 3)
	if err != nil {
		return err
	}
	inst := &plan.Instance{X: w.x, Factors: fs}
	if err := eng.Prepare(w.prob, inst); err != nil {
		return err
	}
	chain := bounds.MultiTTM{Dims: dims, Ranks: w.ranks, Skip: -1}
	bound := math.Max(chain.SeqMemDependent(float64(l.cal.CacheWords)), chain.TotalWords())
	pass := l.engineLayer(w.prob, eng, inst, bound, 1, "ttm-chain")
	l.planLayer(w.prob, eng, inst, w.choice.Predicted.Seconds, pass)
	l.solverLayer(tuckerSweeps)
	l.noComm()
	return nil
}

func (w *sparseBench) layers(l *layerRun) error {
	dims := w.coo.Dims()
	N := len(dims)
	csf := w.inst.CSF
	fiber := csf.NNZ() / csf.Nodes(N-2)
	l.simdLayer(w.choice.GemmKC, sparseRank, fiber, dims[N-1])
	// Not on this workload's path: a dense GEMM with the pass's rows,
	// nonzeros per row, and R, to show GEMM changes leave it alone.
	l.gemmLayer(dims[0], csf.NNZ()/dims[0], sparseRank)
	// Not on this workload's path either: the R x R Gram of the mode-0
	// output, the size a sparse CP-ALS solve would see.
	l.eigLayer(linalg.Gram(w.res.All[0]), sparseRank)
	l.solveLayer(dims[0], sparseRank, N)

	bound := float64(N) * l.mttkrpBound(dims, sparseRank)
	pass := l.engineLayer(w.prob, w.eng, w.inst, bound, 1, "sparse")
	l.planLayer(w.prob, w.eng, w.inst, w.choice.Predicted.Seconds, pass)
	w.sparseSolver(l)
	l.noComm()
	return nil
}

// sparseSolver reports the solver metrics of sparse-csf, which has no
// solver of its own in the repository: CP-ALS sweeps composed from
// public pieces over the prepared CSF tensor. Per mode, a CSF MTTKRP,
// the Hadamard of the other Grams, the normal-equations solve as cpals
// calls it, and the Gram update. No fit is computed.
func (w *sparseBench) sparseSolver(l *layerRun) {
	factors := make([]*tensor.Matrix, len(w.fs))
	grams := make([]*tensor.Matrix, len(w.fs))
	bs := make([]*tensor.Matrix, len(w.fs))
	for k, f := range w.fs {
		factors[k] = f.Clone()
		grams[k] = linalg.Gram(factors[k])
		bs[k] = tensor.NewMatrix(f.Rows(), sparseRank)
	}
	ws := sparse.NewWorkspace()
	var sweeps []float64
	var solve, gram, total time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(sweeps) < 3 || time.Since(start) < l.slice(0.08) {
		t0 := time.Now()
		for n := range factors {
			w.inst.CSF.MTTKRPInto(bs[n], factors, n, allCores(), ws)
			v := tensor.NewMatrix(sparseRank, sparseRank)
			v.Fill(1)
			for k, g := range grams {
				if k != n {
					v = tensor.Hadamard(v, g)
				}
			}
			t1 := time.Now()
			xt, err := linalg.SolveSPD(v, linalg.Transpose(bs[n]))
			if err != nil {
				l.t.record("sparse sweep solve", err)
				return
			}
			factors[n] = linalg.Transpose(xt)
			t2 := time.Now()
			grams[n] = linalg.Gram(factors[n])
			solve += t2.Sub(t1)
			gram += time.Since(t2)
		}
		d := time.Since(t0)
		total += d
		sweeps = append(sweeps, d.Seconds())
	}
	runtime.ReadMemStats(&after)
	l.set("solver.sweep_ms", median(sweeps)*1e3, "ms")
	l.set("solver.sweeps", 1, "count")
	l.set("solver.solve_share", solve.Seconds()/total.Seconds(), "fraction")
	l.set("solver.gram_share", gram.Seconds()/total.Seconds(), "fraction")
	l.set("solver.fit_share", 0, "fraction")
	l.set("solver.alloc_kb_per_sweep", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(sweeps))/1024, "KiB")
}

func (w *gridBench) layers(l *layerRun) error {
	dims := w.x.Dims()
	local := make([]int, len(dims))
	lo := make([]int, len(dims))
	P := 1
	for k, d := range dims {
		local[k] = d / gridShape[k]
		P *= gridShape[k]
	}
	kc, _ := linalg.BlockSizes()
	l.simdLayer(kc, gridRank, local[2], local[2])
	l.gemmLayer(local[0], elems(local)/local[0], gridRank)
	g := tensor.NewMatrix(dims[0], dims[0])
	ttm.GramInto(g, w.x, 0, allCores(), ttm.NewWorkspace())
	l.eigLayer(g, gridRank)
	// Each rank solves for its own rows of the factor.
	l.solveLayer(dims[0]/P, gridRank, len(dims))

	// The engine every rank runs: kernel.Fast on its local block, one
	// mode at a time.
	prob := plan.Problem{Dims: local, R: gridRank, Mode: 0, Reuses: gridSweeps * len(dims)}
	choice, err := plan.PlanEngine("fast", prob, l.cal)
	if err != nil {
		return err
	}
	eng, _ := plan.Lookup("fast")
	inst := &plan.Instance{X: w.x.SubTensor(lo, local), Factors: tensor.RandomFactors(3, local, gridRank)}
	if err := eng.Prepare(prob, inst); err != nil {
		return err
	}
	bound := l.mttkrpBound(local, gridRank)
	pass := l.engineLayer(prob, eng, inst, bound, P, "local")
	l.planLayer(prob, eng, inst, choice.Predicted.Seconds, pass)
	l.solverLayer(gridSweeps)

	// Communication: word counts from the solver's own per-rank
	// accounting, messages from a flight-recorded op.
	rec := flight.NewDistributed(P, 1<<14)
	flight.Enable(rec)
	err = w.op(0)
	flight.Disable()
	l.t.record("flight-recorded op", l.same(w, err))
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return err
	}
	sum, err := flight.Validate(buf.Bytes())
	l.t.record("flight trace validation", err)
	if rec.Dropped() > 0 {
		l.t.record("flight trace", fmt.Errorf("%d events dropped", rec.Dropped()))
	}
	var msgs int
	if sum != nil {
		for _, n := range sum.SendEvents {
			if n > msgs {
				msgs = n
			}
		}
	}
	var mt, ot int64
	for r := range w.last.MTTKRPWords {
		mt += w.last.MTTKRPWords[r]
		ot += w.last.OtherWords[r]
	}
	l.set("comm.mttkrp_words_max", float64(w.last.MaxMTTKRPWords()), "words")
	l.set("comm.other_words_max", float64(w.last.MaxOtherWords()), "words")
	l.set("comm.mttkrp_share", float64(mt)/float64(mt+ot), "fraction")
	l.set("comm.msgs_max", float64(msgs), "count")
	l.set("comm.local_share", l.share("local")/float64(P), "fraction")
	return nil
}
