package repro

// The benchmark harness: one benchmark per evaluation artifact of the
// paper (see DESIGN.md's per-experiment index). Where the artifact is
// a communication count, the benchmark reports it via ReportMetric
// (words/op or words/proc) alongside wall time, so `go test -bench=.`
// regenerates the quantities behind every table-like claim and figure.

import (
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/cachesim"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/cpals"
	"repro/internal/dimtree"
	"repro/internal/hbl"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/par"
	"repro/internal/pebble"
	"repro/internal/plan"
	"repro/internal/seq"
	"repro/internal/simnet"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/ttm"
	"repro/internal/tucker"
	"repro/internal/workload"
)

func benchProblem(b *testing.B, side, R int) (*tensor.Dense, []*tensor.Matrix) {
	b.Helper()
	inst, err := workload.Generate(workload.Cubical(3, side, R, 42))
	if err != nil {
		b.Fatal(err)
	}
	return inst.X, inst.Factors
}

// BenchmarkMTTKRPKernel measures the plain atomic kernel (Definition
// 2.1) — the baseline local computation of every algorithm.
func BenchmarkMTTKRPKernel(b *testing.B) {
	x, fs := benchProblem(b, 32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Ref(x, fs, 0)
	}
}

// BenchmarkMTTKRPKernelWorkers measures the KRP-splitting engine's
// multicore scaling.
func BenchmarkMTTKRPKernelWorkers(b *testing.B) {
	x, fs := benchProblem(b, 32, 16)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(sizeName("w", int64(w)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel.FastWorkers(x, fs, 0, w)
			}
		})
	}
}

// BenchmarkMTTKRPKernelEngines is the head-to-head of the atomic
// reference and the KRP-splitting engine across tensor orders 3-5 at
// roughly equal element counts.
func BenchmarkMTTKRPKernelEngines(b *testing.B) {
	shapes := map[int][]int{
		3: {32, 32, 32},
		4: {16, 16, 16, 16},
		5: {10, 10, 10, 10, 10},
	}
	const R = 16
	for order := 3; order <= 5; order++ {
		dims := shapes[order]
		x := tensor.RandomDense(42, dims...)
		fs := tensor.RandomFactors(43, dims, R)
		n := order / 2 // interior mode: the hardest case for the engine
		b.Run(sizeName("order", int64(order))+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.Ref(x, fs, n)
			}
		})
		b.Run(sizeName("order", int64(order))+"/fast", func(b *testing.B) {
			ws := kernel.NewWorkspace(dims, R, n)
			out := tensor.NewMatrix(dims[n], R)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.FastInto(out, x, fs, n, 0, ws)
			}
		})
	}
}

// BenchmarkMTTKRPKernel128 is the acceptance benchmark: the engine on
// a 128^3, R=16 problem with a reused workspace must beat seq.Ref by
// >= 3x and allocate nothing in steady state (run with -benchmem).
func BenchmarkMTTKRPKernel128(b *testing.B) {
	dims := []int{128, 128, 128}
	const R, n = 16, 1
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Ref(x, fs, n)
		}
	})
	b.Run("fast", func(b *testing.B) {
		ws := kernel.NewWorkspace(dims, R, n)
		out := tensor.NewMatrix(dims[n], R)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernel.FastInto(out, x, fs, n, 0, ws)
		}
	})
}

// BenchmarkCPALSInnerMTTKRP measures the steady-state CP-ALS inner
// iteration as Decompose runs it: an all-modes FastInto sweep with a
// reused workspace and preallocated outputs. With -benchmem this
// demonstrates the engine's zero-allocation contract.
func BenchmarkCPALSInnerMTTKRP(b *testing.B) {
	dims := []int{48, 48, 48}
	const R = 8
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	ws := kernel.NewWorkspace(dims, R, 1)
	bs := make([]*tensor.Matrix, len(dims))
	for n := range bs {
		bs[n] = tensor.NewMatrix(dims[n], R)
	}
	for n := range bs { // warm the workspace to steady state
		kernel.FastInto(bs[n], x, fs, n, 0, ws)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range bs {
			kernel.FastInto(bs[n], x, fs, n, 0, ws)
		}
	}
}

// BenchmarkTreeALS compares plain ALS sweeps with the Phan-style
// prefix-reuse sweeps (identical mathematics, fewer operations).
func BenchmarkTreeALS(b *testing.B) {
	inst, err := workload.Generate(workload.Cubical(4, 10, 4, 42))
	if err != nil {
		b.Fatal(err)
	}
	opts := cpals.Options{R: 4, MaxIters: 3, Tol: 0, Seed: 5}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cpals.Decompose(inst.X, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		var flops int64
		for i := 0; i < b.N; i++ {
			_, _, f, err := cpals.DecomposeTree(inst.X, opts)
			if err != nil {
				b.Fatal(err)
			}
			flops = f
		}
		b.ReportMetric(float64(flops), "mttkrp-flops")
	})
}

// BenchmarkLocalKernels compares the atomic kernel with the
// atomicity-breaking local KRP+GEMM variant (E12: Eq. (17)) — same
// result, fewer operations.
func BenchmarkLocalKernels(b *testing.B) {
	x, fs := benchProblem(b, 24, 16)
	b.Run("atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Ref(x, fs, 0)
		}
	})
	b.Run("krp-gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := seq.ViaMatmul(x, fs, 0, memsim.New(1<<20))
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	})
}

// BenchmarkSeqBlockedComm regenerates E3 (Theorem 6.1): blocked
// algorithm words across fast-memory sizes; words/op is the measured
// communication.
func BenchmarkSeqBlockedComm(b *testing.B) {
	x, fs := benchProblem(b, 16, 8)
	for _, M := range []int64{64, 256, 1024, 4096} {
		M := M
		b.Run(sizeName("M", M), func(b *testing.B) {
			blk, err := seq.ChooseBlock(M, 3, 0.9)
			if err != nil {
				b.Fatal(err)
			}
			var words int64
			for i := 0; i < b.N; i++ {
				res, err := seq.Blocked(x, fs, 0, blk, memsim.New(M))
				if err != nil {
					b.Fatal(err)
				}
				words = res.Counts.Words()
			}
			b.ReportMetric(float64(words), "words/op")
		})
	}
}

// BenchmarkSeqVsMatmul regenerates E4 (Section VI-A): blocked vs
// via-matmul at one machine size.
func BenchmarkSeqVsMatmul(b *testing.B) {
	x, fs := benchProblem(b, 16, 32)
	const M = 512
	b.Run("blocked", func(b *testing.B) {
		blk, err := seq.ChooseBlock(M, 3, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var words int64
		for i := 0; i < b.N; i++ {
			res, err := seq.Blocked(x, fs, 0, blk, memsim.New(M))
			if err != nil {
				b.Fatal(err)
			}
			words = res.Counts.Words()
		}
		b.ReportMetric(float64(words), "words/op")
	})
	b.Run("via-matmul", func(b *testing.B) {
		var words int64
		for i := 0; i < b.N; i++ {
			res, err := seq.ViaMatmul(x, fs, 0, memsim.New(M))
			if err != nil {
				b.Fatal(err)
			}
			words = res.Counts.Words()
		}
		b.ReportMetric(float64(words), "words/op")
	})
}

// BenchmarkSeqUnblocked regenerates the Algorithm 1 cost line: exactly
// I + IR(N+1) words.
func BenchmarkSeqUnblocked(b *testing.B) {
	x, fs := benchProblem(b, 12, 4)
	var words int64
	for i := 0; i < b.N; i++ {
		res, err := seq.Unblocked(x, fs, 0, memsim.New(64))
		if err != nil {
			b.Fatal(err)
		}
		words = res.Counts.Words()
	}
	b.ReportMetric(float64(words), "words/op")
}

// BenchmarkParStationary regenerates E5's Algorithm 3 rows: measured
// per-processor words across P, with grids chosen by the exact cost
// model.
func BenchmarkParStationary(b *testing.B) {
	x, fs := benchProblem(b, 16, 8)
	for _, P := range []int{2, 8, 64} {
		P := P
		b.Run(sizeName("P", int64(P)), func(b *testing.B) {
			shape, err := costmodel.BestStationaryExact(x.Dims(), 8, P)
			if err != nil {
				b.Fatal(err)
			}
			var words int64
			for i := 0; i < b.N; i++ {
				res, err := par.Stationary(x, fs, 0, shape)
				if err != nil {
					b.Fatal(err)
				}
				words = res.MaxWords()
			}
			b.ReportMetric(float64(words), "words/proc")
		})
	}
}

// BenchmarkParGeneral regenerates E5's Algorithm 4 rows.
func BenchmarkParGeneral(b *testing.B) {
	x, fs := benchProblem(b, 16, 8)
	for _, P := range []int{2, 8, 64} {
		P := P
		b.Run(sizeName("P", int64(P)), func(b *testing.B) {
			shape, err := costmodel.BestGeneralExact(x.Dims(), 8, P)
			if err != nil {
				b.Fatal(err)
			}
			var words int64
			for i := 0; i < b.N; i++ {
				res, err := par.General(x, fs, 0, shape)
				if err != nil {
					b.Fatal(err)
				}
				words = res.MaxWords()
			}
			b.ReportMetric(float64(words), "words/proc")
		})
	}
}

// BenchmarkParViaMatmul regenerates E5's baseline rows — the flat
// curve of Figure 4 measured on the simulator.
func BenchmarkParViaMatmul(b *testing.B) {
	x, fs := benchProblem(b, 16, 8)
	for _, P := range []int{2, 8, 64} {
		P := P
		b.Run(sizeName("P", int64(P)), func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				res, err := par.ViaMatmul1D(x, fs, 0, P)
				if err != nil {
					b.Fatal(err)
				}
				words = res.MaxWords()
			}
			b.ReportMetric(float64(words), "words/proc")
		})
	}
}

// BenchmarkFig4Model regenerates E1/E2: the full Figure 4 sweep (31
// points, three curves, exhaustive power-of-two grid search at each).
func BenchmarkFig4Model(b *testing.B) {
	var rows []costmodel.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = costmodel.Fig4Series(30)
	}
	c := costmodel.ComputeFig4Callouts(rows)
	b.ReportMetric(float64(c.DivergeExp), "diverge-exp")
	b.ReportMetric(c.RatioAt17, "ratio@2^17")
}

// BenchmarkCPALS regenerates E10: sequential and distributed CP-ALS
// sweeps, reporting the parallel run's MTTKRP communication share.
func BenchmarkCPALS(b *testing.B) {
	inst, err := workload.Generate(workload.Spec{
		Dims: []int{16, 16, 16}, R: 4, Seed: 7, Noise: 0.01,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := cpals.Options{R: 4, MaxIters: 5, Tol: 0, Seed: 9}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cpals.Decompose(inst.X, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-2x2x2", func(b *testing.B) {
		var share float64
		for i := 0; i < b.N; i++ {
			res, err := cpals.DecomposeParallel(inst.X, []int{2, 2, 2}, opts)
			if err != nil {
				b.Fatal(err)
			}
			mt, ot := res.MaxMTTKRPWords(), res.MaxOtherWords()
			share = float64(mt) / float64(mt+ot)
		}
		b.ReportMetric(100*share, "mttkrp-comm-%")
	})
}

// BenchmarkDimTree regenerates E14: all-modes MTTKRP via a dimension
// tree versus N independent atomic passes; flops-saved is the ratio.
func BenchmarkDimTree(b *testing.B) {
	inst, err := workload.Generate(workload.Cubical(4, 12, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree", func(b *testing.B) {
		var flops int64
		for i := 0; i < b.N; i++ {
			flops = dimtree.AllModes(inst.X, inst.Factors).Flops
		}
		b.ReportMetric(float64(dimtree.NaiveFlops(inst.X.Dims(), 8))/float64(flops), "flops-saved-x")
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for n := 0; n < 4; n++ {
				seq.Ref(inst.X, inst.Factors, n)
			}
		}
	})
}

// BenchmarkDimTreeAllModes regenerates E22: the GEMM-based
// dimension-tree engine against (a) the scalar tree it replaced and
// (b) N independent KRP-splitting kernel calls — the head-to-head the
// multi-MTTKRP sharing argument rests on. fast-tree reports allocs to
// witness the zero-steady-state contract.
func BenchmarkDimTreeAllModes(b *testing.B) {
	for _, cfg := range []struct {
		name string
		dims []int
	}{
		{"128c3", []int{128, 128, 128}},
		{"32c5", []int{32, 32, 32, 32, 32}},
	} {
		const R = 16
		x := tensor.RandomDense(42, cfg.dims...)
		fs := tensor.RandomFactors(43, cfg.dims, R)
		N := len(cfg.dims)
		b.Run(cfg.name+"/fast-tree", func(b *testing.B) {
			eng := dimtree.NewEngine(0)
			res := &dimtree.Result{}
			eng.AllModesInto(res, x, fs) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.AllModesInto(res, x, fs)
			}
		})
		b.Run(cfg.name+"/independent-fast", func(b *testing.B) {
			ws := kernel.GetWorkspace()
			defer kernel.PutWorkspace(ws)
			outs := make([]*tensor.Matrix, N)
			for n := 0; n < N; n++ {
				outs[n] = tensor.NewMatrix(x.Dim(n), R)
				kernel.FastInto(outs[n], x, fs, n, 0, ws) // grow the workspace to steady state
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := 0; n < N; n++ {
					kernel.FastInto(outs[n], x, fs, n, 0, ws)
				}
			}
		})
		b.Run(cfg.name+"/scalar-tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dimtree.AllModesRef(x, fs)
			}
		})
	}
}

// BenchmarkLRUReplay regenerates E13: LRU traffic of the blocked and
// unblocked orderings at one machine size.
func BenchmarkLRUReplay(b *testing.B) {
	dims := []int{12, 12, 12}
	const R, n, M = 8, 0, 128
	l := trace.NewLayout(dims, R, n)
	b.Run("blocked", func(b *testing.B) {
		var words int64
		for i := 0; i < b.N; i++ {
			res := cachesim.Simulate(M, func(e func(trace.Access)) { trace.Blocked(l, n, 4, e) })
			words = res.Words()
		}
		b.ReportMetric(float64(words), "words/op")
	})
	b.Run("unblocked", func(b *testing.B) {
		var words int64
		for i := 0; i < b.N; i++ {
			res := cachesim.Simulate(M, func(e func(trace.Access)) { trace.Unblocked(l, n, e) })
			words = res.Words()
		}
		b.ReportMetric(float64(words), "words/op")
	})
}

// BenchmarkNaiveVsBucketCollectives quantifies the collective-algorithm
// ablation: max per-rank words of bucket vs root-based All-Gather.
func BenchmarkNaiveVsBucketCollectives(b *testing.B) {
	const q, w = 8, 256
	ranks := make([]int, q)
	for i := range ranks {
		ranks[i] = i
	}
	run := func(b *testing.B, naive bool) {
		var maxWords int64
		for i := 0; i < b.N; i++ {
			net := simnet.New(q)
			err := net.Run(func(rank int) error {
				c := comm.New(net, ranks, rank)
				if naive {
					c.NaiveAllGatherV(make([]float64, w))
				} else {
					c.AllGatherV(make([]float64, w))
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			maxWords = net.MaxWords()
		}
		b.ReportMetric(float64(maxWords), "max-words/proc")
	}
	b.Run("bucket", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}

// BenchmarkTucker measures the HOOI application built on the TTM
// substrate (the paper's "other related computational kernels").
func BenchmarkTucker(b *testing.B) {
	x := tensor.RandomDense(42, 16, 16, 16)
	for i := 0; i < b.N; i++ {
		if _, _, err := tucker.Decompose(x, tucker.Options{Ranks: []int{4, 4, 4}, MaxIters: 3, Tol: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTTMChain is E29's kernel half: the full greedy TTM chain
// (the HOOI core contraction) on a 128^3, rank-16 problem. "scalar" is
// the retained per-element reference; "engine" is the blocked-GEMM
// chain into a reused output and workspace (zero steady-state
// allocations — the allocs/op column is part of the artifact);
// "engine-par" lets the slab parallelism use every core.
func BenchmarkTTMChain(b *testing.B) {
	dims := []int{128, 128, 128}
	ranks := []int{16, 16, 16}
	x := tensor.RandomDense(42, dims...)
	us := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		us[k] = tensor.RandomMatrix(int64(43+k), dims[k], ranks[k])
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ttm.ChainScalar(x, us, -1)
		}
	})
	b.Run("engine", func(b *testing.B) {
		out := tensor.NewDense(ranks...)
		ws := ttm.NewWorkspace()
		ttm.ChainInto(out, x, us, -1, 1, ws)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ttm.ChainInto(out, x, us, -1, 1, ws)
		}
	})
	b.Run("engine-par", func(b *testing.B) {
		out := tensor.NewDense(ranks...)
		ws := ttm.NewWorkspace()
		ttm.ChainInto(out, x, us, -1, 0, ws)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ttm.ChainInto(out, x, us, -1, 0, ws)
		}
	})
}

// BenchmarkTuckerHOOI is E29's application half: one full HOOI sweep
// body at 128^3 ranks 16 — per-mode projection chain plus mode Gram,
// then the core contraction — with the eigensolves excluded so the
// comparison isolates the TTM substrate. "scalar" pairs the scalar
// chain with the explicit Unfold + MatMulTransB Gram (the pre-engine
// formulation); "engine" is the production ChainInto/GramInto path
// with every buffer reused.
func BenchmarkTuckerHOOI(b *testing.B) {
	dims := []int{128, 128, 128}
	ranks := []int{16, 16, 16}
	x := tensor.RandomDense(7, dims...)
	us := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		us[k] = tensor.RandomMatrix(int64(8+k), dims[k], ranks[k])
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range dims {
				y := ttm.ChainScalar(x, us, k)
				yk := tensor.Unfold(y, k)
				linalg.MatMulTransB(yk, yk)
			}
			ttm.ChainScalar(x, us, -1)
		}
	})
	run := func(b *testing.B, workers int) {
		ws := ttm.NewWorkspace()
		yBuf := make([]*tensor.Dense, len(dims))
		gramBuf := make([]*tensor.Matrix, len(dims))
		for k := range dims {
			ydims := append([]int(nil), ranks...)
			ydims[k] = dims[k]
			yBuf[k] = tensor.NewDense(ydims...)
			gramBuf[k] = tensor.NewMatrix(dims[k], dims[k])
		}
		coreBuf := tensor.NewDense(ranks...)
		sweep := func() {
			for k := range dims {
				ttm.ChainInto(yBuf[k], x, us, k, workers, ws)
				ttm.GramInto(gramBuf[k], yBuf[k], k, workers, ws)
			}
			ttm.ChainInto(coreBuf, x, us, -1, workers, ws)
		}
		sweep() // warm the workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	}
	b.Run("engine", func(b *testing.B) { run(b, 1) })
	b.Run("engine-par", func(b *testing.B) { run(b, 0) })
}

// BenchmarkOptimalSchedule regenerates E16: the exact optimal I/O of a
// tiny instance by exhaustive search, reported as opt-words.
func BenchmarkOptimalSchedule(b *testing.B) {
	inst := pebble.Instance{Dims: []int{2, 2}, R: 2, N: 0, M: 4}
	var opt int64
	for i := 0; i < b.N; i++ {
		v, err := pebble.Optimal(inst, 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		opt = v
	}
	b.ReportMetric(float64(opt), "opt-words")
}

// BenchmarkSparseMTTKRP regenerates E19: the sparse kernel and the
// partition-dependent communication of its parallelization.
func BenchmarkSparseMTTKRP(b *testing.B) {
	dims := []int{24, 24, 24}
	const R, P = 4, 8
	s := sparse.RandomBlocky(21, 8, 60, 5, dims...)
	fs := tensor.RandomFactors(22, dims, R)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.MTTKRP(s, fs, 0)
		}
	})
	for _, pc := range []struct {
		name string
		part sparse.Partition
	}{
		{"block", sparse.BlockPartition(s, P)},
		{"random", sparse.RandomPartition(s, P, 23)},
	} {
		pc := pc
		b.Run("parallel-"+pc.name, func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				res, err := sparse.ParallelMTTKRP(s, fs, 0, pc.part)
				if err != nil {
					b.Fatal(err)
				}
				words = res.TotalSent()
			}
			b.ReportMetric(float64(words), "volume-words")
		})
	}
}

// BenchmarkSparseMTTKRPEngines regenerates E25: the COO fallback vs
// the CSF fiber-tree engine (build cost, single- and multi-worker,
// all-modes pass) over an nnz sweep on a 256^3 tensor at R=16, with
// the dense KRP-splitting kernel on the same shape as the
// matched-density ceiling.
func BenchmarkSparseMTTKRPEngines(b *testing.B) {
	dims := []int{256, 256, 256}
	const R = 16
	fs := tensor.RandomFactors(71, dims, R)
	for _, nnz := range []int{10_000, 100_000, 1_000_000} {
		s := sparse.Random(73, nnz, dims...)
		name := sizeName("nnz", int64(nnz))
		b.Run(name+"/coo", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.MTTKRP(s, fs, 0)
			}
		})
		b.Run(name+"/csf-build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.FromCOO(s, 0)
			}
		})
		t := sparse.FromCOO(s, 0)
		ws := sparse.NewWorkspace()
		out := tensor.NewMatrix(dims[0], R)
		mid := tensor.NewMatrix(dims[1], R)
		outs := make([]*tensor.Matrix, len(dims))
		for k := range outs {
			outs[k] = tensor.NewMatrix(dims[k], R)
		}
		b.Run(name+"/csf-w1", func(b *testing.B) {
			t.MTTKRPInto(out, fs, 0, 1, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.MTTKRPInto(out, fs, 0, 1, ws)
			}
		})
		b.Run(name+"/csf", func(b *testing.B) {
			t.MTTKRPInto(out, fs, 0, 0, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.MTTKRPInto(out, fs, 0, 0, ws)
			}
		})
		b.Run(name+"/csf-midmode", func(b *testing.B) {
			t.MTTKRPInto(mid, fs, 1, 0, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.MTTKRPInto(mid, fs, 1, 0, ws)
			}
		})
		b.Run(name+"/csf-allmodes", func(b *testing.B) {
			t.AllModesInto(outs, fs, 0, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.AllModesInto(outs, fs, 0, ws)
			}
		})
		ws.Release()
	}
	b.Run("dense-fast", func(b *testing.B) {
		x := tensor.RandomDense(79, dims...)
		kws := kernel.GetWorkspace()
		defer kernel.PutWorkspace(kws)
		out := tensor.NewMatrix(dims[0], R)
		kernel.FastInto(out, x, fs, 0, 0, kws)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernel.FastInto(out, x, fs, 0, 0, kws)
		}
	})
}

// BenchmarkLPSolve regenerates E7: solving the Lemma 4.2 LP for a
// range of tensor orders.
func BenchmarkLPSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for N := 2; N <= 10; N++ {
			if _, _, err := lp.Solve(hbl.LemmaLP(N)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGridSearch measures the exact grid chooser used by the
// experiments (ablation: exhaustive search cost).
func BenchmarkGridSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.BestGeneralExact([]int{64, 64, 64}, 16, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(prefix string, v int64) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

// BenchmarkObsDimTreeWords regenerates E24's measured column: the
// instrumented dimension-tree engine's streaming-model traffic per
// all-modes pass (words/op) and its ratio to the summed per-mode
// Theorem 4.1/Fact 4.1 best bound at M = 32768 words (boundratio) —
// both flowing into BENCH_*.json through benchjson's metric schema.
func BenchmarkObsDimTreeWords(b *testing.B) {
	dims := []int{64, 64, 64}
	const R, M = 16, 32768
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	col := obs.New(0)
	obs.Enable(col)
	defer obs.Disable()
	eng := dimtree.NewEngine(0)
	res := &dimtree.Result{}
	eng.AllModesInto(res, x, fs)
	col.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AllModesInto(res, x, fs)
	}
	b.StopTimer()
	tot := col.Totals()
	words := float64(tot.Words()) / float64(b.N)
	b.ReportMetric(words, "words/op")
	prob := bounds.Problem{Dims: dims, R: R}
	bound := float64(len(dims)) * bounds.SeqBest(prob, M)
	b.ReportMetric(words/bound, "boundratio")
}

// BenchmarkObsOverhead prices the observability layer on the
// dimension-tree hot path: the no-op default (what every ordinary run
// pays — one atomic pointer load and a branch per instrumentation
// site) against an enabled collector. The acceptance budget is <= 5%
// on BenchmarkDimTreeAllModes; the instrumentation sits at GEMM-call
// granularity, far coarser than that.
func BenchmarkObsOverhead(b *testing.B) {
	dims := []int{64, 64, 64}
	const R = 16
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	run := func(b *testing.B) {
		eng := dimtree.NewEngine(0)
		res := &dimtree.Result{}
		eng.AllModesInto(res, x, fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.AllModesInto(res, x, fs)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		obs.Disable()
		run(b)
	})
	b.Run("enabled", func(b *testing.B) {
		obs.Enable(obs.New(0))
		defer obs.Disable()
		run(b)
	})
}

// BenchmarkFlightOverhead prices the flight recorder the same way: the
// disabled default (one atomic pointer load and a branch per
// instrumentation site) against an enabled recorder writing into its
// rings, on the dimension-tree hot path — plus a raw record-call
// nanobenchmark for the per-event cost in isolation.
func BenchmarkFlightOverhead(b *testing.B) {
	dims := []int{64, 64, 64}
	const R = 16
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	run := func(b *testing.B) {
		eng := dimtree.NewEngine(0)
		res := &dimtree.Result{}
		eng.AllModesInto(res, x, fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.AllModesInto(res, x, fs)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		flight.Disable()
		run(b)
	})
	b.Run("enabled", func(b *testing.B) {
		flight.Enable(flight.New(0, flight.DefaultRingCap))
		defer flight.Disable()
		run(b)
	})
	b.Run("record", func(b *testing.B) {
		flight.Enable(flight.New(0, flight.DefaultRingCap))
		defer flight.Disable()
		name := flight.RegisterName("bench-record")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flight.Rec().Kernel(0, 0, name, 100, 10)
		}
	})
}

// benchCal is a fixed calibration for the planner benchmarks, so the
// plans (and therefore what each sub-benchmark measures) are identical
// across machines and runs — the point is to time the planned
// configuration, not to re-measure the machine mid-benchmark.
func benchCal() *plan.Calibration {
	c := plan.Default()
	c.Key = "bench: fixed planner calibration"
	return c
}

// BenchmarkPlannedMTTKRP races the cost-model planner's pick against
// each fixed engine on a dense all-modes sweep — the shape class where
// the engine choice (independent fast kernels vs the dimension tree)
// matters most. The "auto" sub-benchmark runs whatever the planner
// picked; its time should track the best fixed engine within the
// model's resolution.
func BenchmarkPlannedMTTKRP(b *testing.B) {
	dims := []int{64, 64, 64}
	const R = 16
	x := tensor.RandomDense(42, dims...)
	fs := tensor.RandomFactors(43, dims, R)
	prob := plan.Problem{Dims: dims, R: R, Mode: plan.AllModes, MaxWorkers: 1}
	cal := benchCal()
	inst := &plan.Instance{X: x, Factors: fs}
	res := &plan.Result{}
	for _, name := range plan.Engines() {
		name := name
		choice, err := plan.PlanEngine(name, prob, cal)
		if err != nil {
			continue // engine does not support this problem
		}
		eng, _ := plan.Lookup(name)
		b.Run(name, func(b *testing.B) {
			if err := eng.Prepare(prob, inst); err != nil {
				b.Fatal(err)
			}
			eng.Run(prob, inst, res, choice.Workers) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(prob, inst, res, choice.Workers)
			}
		})
	}
	b.Run("auto", func(b *testing.B) {
		choice, err := plan.Plan(prob, cal)
		if err != nil {
			b.Fatal(err)
		}
		eng, _ := plan.Lookup(choice.Engine)
		if err := eng.Prepare(prob, inst); err != nil {
			b.Fatal(err)
		}
		eng.Run(prob, inst, res, choice.Workers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Run(prob, inst, res, choice.Workers)
		}
	})
}

// BenchmarkSmallShapeCutover is the regression benchmark behind the
// planner's small-shape guard. Each iteration is a one-shot all-modes
// sweep on a fresh problem instance — engine setup included — because
// that is what a planned command run pays: at 16^3 the whole sweep is
// tens of microseconds, the dimension tree pays construction and
// partial materialization up front, and the streaming cost model
// cannot resolve differences at that scale, so the planner pins the
// setup-free fast kernel there (and must still pick "tree" once the
// tensor is large enough for the flop saving to dominate). The
// fast/tree rows document the measured gap on the current machine;
// the auto rows fail the benchmark if either cutover decision drifts.
func BenchmarkSmallShapeCutover(b *testing.B) {
	const R = 8
	cal := benchCal()
	oneShot := func(b *testing.B, eng plan.Engine, prob plan.Problem, x *tensor.Dense, fs []*tensor.Matrix) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			inst := &plan.Instance{X: x, Factors: fs}
			if err := eng.Prepare(prob, inst); err != nil {
				b.Fatal(err)
			}
			eng.Run(prob, inst, &plan.Result{}, 1)
		}
	}
	for _, side := range []int{16, 64} {
		side := side
		dims := []int{side, side, side}
		x := tensor.RandomDense(42, dims...)
		fs := tensor.RandomFactors(43, dims, R)
		prob := plan.Problem{Dims: dims, R: R, Mode: plan.AllModes, MaxWorkers: 1}
		pre := sizeName("side", int64(side)) + "/"
		for _, name := range []string{"fast", "tree"} {
			eng, _ := plan.Lookup(name)
			b.Run(pre+name, func(b *testing.B) { oneShot(b, eng, prob, x, fs) })
		}
		choice, err := plan.Plan(prob, cal)
		if err != nil {
			b.Fatal(err)
		}
		want := map[int]string{16: "fast", 64: "tree"}[side]
		if choice.Engine != want {
			b.Fatalf("planner picked %q for side=%d all-modes, want %q", choice.Engine, side, want)
		}
		eng, _ := plan.Lookup(choice.Engine)
		b.Run(pre+"auto", func(b *testing.B) { oneShot(b, eng, prob, x, fs) })
	}
}
