package repro

// The benchmark harness: one benchmark per evaluation artifact of the
// paper (see DESIGN.md's per-experiment index). Where the artifact is
// a communication count, the benchmark reports it via ReportMetric
// (words/op or words/proc) alongside wall time, so `go test -bench=.`
// regenerates the quantities behind every table-like claim and figure.

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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
// multicore scaling on mode 0 at GOMAXPROCS workers, so one
// `-cpu 1,2` run compares the two. At 128^3 R16 the kept-prefix root
// runs on fixed buckets and reads X once at any worker count; at
// 32^3 R16 it stays one GEMM. GFLOP/s counts the contraction's 2·I·R
// flops.
func BenchmarkMTTKRPKernelWorkers(b *testing.B) {
	const R = 16
	for _, side := range []int{32, 128} {
		x, fs := benchProblem(b, side, R)
		b.Run(sizeName("side", int64(side))+"/"+sizeName("R", R), func(b *testing.B) {
			ws := kernel.NewWorkspace(x.Dims(), R, 0)
			out := tensor.NewMatrix(side, R)
			kernel.FastInto(out, x, fs, 0, 0, ws)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.FastInto(out, x, fs, 0, 0, ws)
			}
			b.ReportMetric(2*float64(x.Elems()*R)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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
// dimension-tree engine against N independent KRP-splitting kernel
// calls — the head-to-head the multi-MTTKRP sharing argument rests
// on. fast-tree reports allocs to witness the zero-steady-state
// contract.
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

// BenchmarkSymEig is E30: the full symmetric eigensolve (Householder
// tridiagonalization plus implicit-shift QL) on a mode Gram of the
// benchmark workloads' sizes — n = 32 for tucker-hooi's 32^4 tensor,
// n = 128 for cp-dense's 128^3. It allocates the working copy, the
// sorted eigenvector matrix and O(n) vectors; allocs/op is reported.
func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{32, 128} {
		g := linalg.Gram(tensor.RandomMatrix(int64(n), 2*n, n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := linalg.SymEig(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTuckerHOOI is E29's application half and E34's tree: one
// full HOOI sweep body — every mode's projection plus its mode Gram,
// then the core — with the eigensolves excluded so the comparison
// isolates the TTM substrate, at 128^3 ranks 16, at the tucker-hooi
// workload's 32^4 ranks 8, and at 32^4 with skewed ranks
// (16, 16, 4, 4), where the balanced split would cost more than the
// per-mode chains. "scalar" pairs the scalar chain with the explicit
// Unfold + MatMulTransB Gram (the pre-engine formulation); "tree" is
// the production sweep, ttm.TreeInto sharing the projections' partial
// contractions on its planned dimension tree, and the core as one TTM
// of the last leaf's projection (E37), at one worker and ("tree-par")
// at every core. Every engine buffer is reused.
func BenchmarkTuckerHOOI(b *testing.B) {
	for _, tc := range []struct {
		name        string
		dims, ranks []int
	}{
		{"I128-N3-R16", []int{128, 128, 128}, []int{16, 16, 16}},
		{"I32-N4-R8", []int{32, 32, 32, 32}, []int{8, 8, 8, 8}},
		{"I32-N4-R16-16-4-4", []int{32, 32, 32, 32}, []int{16, 16, 4, 4}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchTuckerSweep(b, tc.dims, tc.ranks) })
	}
}

func benchTuckerSweep(b *testing.B, dims, ranks []int) {
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
		yBuf := ttm.ProjectionViews(dims, ranks)
		gramBuf := make([]*tensor.Matrix, len(dims))
		for k := range dims {
			gramBuf[k] = tensor.NewMatrix(dims[k], dims[k])
		}
		coreBuf := tensor.NewDense(ranks...)
		N := len(dims)
		var last *tensor.Dense
		gram := func(k int, y *tensor.Dense) error {
			ttm.GramInto(gramBuf[k], y, k, workers, ws)
			last = y
			return nil
		}
		sweep := func() {
			if err := ttm.TreeInto(yBuf, x, us, workers, ws, gram); err != nil {
				b.Fatal(err)
			}
			ttm.TTMInto(coreBuf, last, us[N-1], N-1, workers)
		}
		sweep() // warm the workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
	}
	b.Run("tree", func(b *testing.B) { run(b, 1) })
	b.Run("tree-par", func(b *testing.B) { run(b, 0) })
}

// BenchmarkModeGram times ttm.GramInto on each mode of the tucker-hooi
// workload's 32^4 tensor: the leading mode's outer-product form, the
// two interior slab cases (packed L = 32 and direct L = 1024) and the
// trailing mode's row-chunked dot form, at one worker and at
// GOMAXPROCS. Only the trailing mode's Gram reads the full tensor in
// the truncated initialization (BenchmarkTuckerInit); the others run
// on the tensor already truncated in the modes after them. GFLOP/s
// counts the symmetric product's own flops, I(I+1) per contraction
// index.
func BenchmarkModeGram(b *testing.B) {
	dims := []int{32, 32, 32, 32}
	x := tensor.RandomDense(41, dims...)
	for mode := range dims {
		for _, workers := range []int{1, linalg.Workers()} {
			b.Run(fmt.Sprintf("mode%d/w%d", mode, workers), func(b *testing.B) {
				I := dims[mode]
				g := tensor.NewMatrix(I, I)
				ws := ttm.NewWorkspace()
				ttm.GramInto(g, x, mode, workers, ws)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ttm.GramInto(g, x, mode, workers, ws)
				}
				flops := float64(I*(I+1)) * float64(x.Elems()/I)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkTuckerInit is E37's initialization: the factor-finding
// pass before the first HOOI sweep, with the eigensolves excluded (the
// factors are fixed) so the comparison isolates the Grams and
// contractions, at the tucker-hooi workload's 32^4 ranks 8 and at 32^4
// with skewed ranks (16, 16, 4, 4), at one worker and at GOMAXPROCS.
// "truncated" is the production pass, ttm.TruncateInto without the
// core, as Decompose runs it: each mode's Gram on the tensor already
// truncated in the modes visited before it, the trailing mode first at
// uniform ranks. "full" is the HOSVD reference it replaced, every mode
// Gram of the full tensor. MFLOP is the count obs records for one op.
func BenchmarkTuckerInit(b *testing.B) {
	for _, tc := range []struct {
		name        string
		dims, ranks []int
	}{
		{"I32-N4-R8", []int{32, 32, 32, 32}, []int{8, 8, 8, 8}},
		{"I32-N4-R16-16-4-4", []int{32, 32, 32, 32}, []int{16, 16, 4, 4}},
	} {
		x := tensor.RandomDense(7, tc.dims...)
		N := len(tc.dims)
		us := make([]*tensor.Matrix, N)
		grams := make([]*tensor.Matrix, N)
		for k := range tc.dims {
			us[k] = tensor.RandomMatrix(int64(8+k), tc.dims[k], tc.ranks[k])
			grams[k] = tensor.NewMatrix(tc.dims[k], tc.dims[k])
		}
		for _, workers := range []int{1, linalg.Workers()} {
			ws := ttm.NewWorkspace()
			out := make([]*tensor.Matrix, N)
			factor := func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
				ttm.GramInto(grams[k], y, k, workers, ws)
				return us[k], nil
			}
			for _, v := range []struct {
				name string
				op   func()
			}{
				{"truncated", func() {
					if err := ttm.TruncateInto(nil, x, tc.ranks, out, workers, ws, factor); err != nil {
						b.Fatal(err)
					}
				}},
				{"full", func() {
					for k := range tc.dims {
						ttm.GramInto(grams[k], x, k, workers, ws)
					}
				}},
			} {
				b.Run(fmt.Sprintf("%s/%s/w%d", tc.name, v.name, workers), func(b *testing.B) {
					col := obs.New(0)
					obs.Enable(col)
					v.op() // count one op and warm the workspace
					obs.Disable()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						v.op()
					}
					b.ReportMetric(float64(col.Totals().Flops)/1e6, "MFLOP")
				})
			}
		}
	}
}

// BenchmarkGemmRoots times, in GFLOP/s, the GEMMs under the workloads'
// hot paths, each with the worker count its caller passes, named by
// the call's own argument order:
//
//   - cp-dense's mode-0 prefix root runs 16 chunks of 128x1024x16 on
//     one worker each: GemmNT against the chunk's row-major KR rows
//     (what the root runs) and GemmNN against the same rows
//     column-major (what it ran before);
//   - cp-dense's kept-suffix root, GemmTN m=128, ka=16384, n=16, on
//     GOMAXPROCS workers;
//   - the planner calibration's timed GemmTN 4096x32x16 on one worker;
//   - tucker-hooi's leading-mode TTMs at 32^4 R8 (ttmSlices' L == 1
//     case), GemmNN 8x32x32768 and GemmTN 32x8x32768, on GOMAXPROCS
//     workers.
//
// Run it at -cpu 1,2; ci.sh runs it once so it keeps compiling.
func BenchmarkGemmRoots(b *testing.B) {
	nn := func(c, a, bb []float64, m, k, n, w int) { linalg.GemmNN(c, a, bb, m, k, n, w) }
	nt := func(c, a, bb []float64, m, k, n, w int) { linalg.GemmNT(c, a, bb, m, k, n, w) }
	tn := func(c, a, bb []float64, m, k, n, w int) { linalg.GemmTN(c, a, bb, m, k, n, w) }
	for _, g := range []struct {
		name      string
		m, k, n   int // the call's arguments: GemmNN/NT m, k, n; GemmTN m, ka, n
		oneWorker bool
		run       func(c, a, bb []float64, m, k, n, w int)
		a, bb, c  int // operand lengths
	}{
		{"cp-dense-root/GemmNT", 128, 1024, 16, true, nt, 128 * 1024, 16 * 1024, 128 * 16},
		{"cp-dense-root/GemmNN", 128, 1024, 16, true, nn, 128 * 1024, 1024 * 16, 128 * 16},
		{"cp-dense-suffix/GemmTN", 128, 16384, 16, false, tn, 128 * 16384, 128 * 16, 16384 * 16},
		{"calibrate/GemmTN", 4096, 32, 16, true, tn, 4096 * 32, 4096 * 16, 32 * 16},
		{"tucker-ttm/GemmNN", 8, 32, 32768, false, nn, 8 * 32, 32 * 32768, 8 * 32768},
		{"tucker-ttm/GemmTN", 32, 8, 32768, false, tn, 32 * 8, 32 * 32768, 8 * 32768},
	} {
		a := tensor.RandomMatrix(42, g.a, 1).Data()
		bb := tensor.RandomMatrix(43, g.bb, 1).Data()
		c := make([]float64, g.c)
		workers := 0
		if g.oneWorker {
			workers = 1
		}
		b.Run(fmt.Sprintf("%s/%dx%dx%d", g.name, g.m, g.k, g.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.run(c, a, bb, g.m, g.k, g.n, workers)
			}
			flops := 2 * float64(g.m) * float64(g.k) * float64(g.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
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

// BenchmarkPlannerRegret measures what the planner's pick costs
// against the fastest engine and worker count, on a fixed sweep: dense
// all-modes problems of orders 2-5 from 64 to 2^21 elements at R 1, 8
// and 32 (16^3 and 64^3 R8 among them), two skewed shapes, a
// single-mode and an f32 problem, sparse 256^3 problems at 10^3 and
// 10^5 nonzeros, each used once and 25 times, and two 32^4 Tucker
// problems. It takes one live calibration (plan.Measure), then times
// every supporting engine at every worker count up to GOMAXPROCS. A
// timed run is what a planned command pays: Prepare on a fresh
// Instance, then max(Reuses, 1) passes. Each engine and worker count
// keeps its best run of at least five, taken in turns with the other
// configurations. For MaxWorkers 1 and GOMAXPROCS, a problem's regret
// is the time of the plan's engine and workers over the fastest time
// at workers <= MaxWorkers, so 1 means the plan was the fastest. The
// log has one row per problem and cap, with both times; the metrics
// are the sweep's maximum and geometric mean per cap. It only reports:
// no regret fails it. One sweep runs for well over the default
// benchtime, so b.N stays 1:
//
//	go test -run '^$' -bench PlannerRegret .
func BenchmarkPlannerRegret(b *testing.B) {
	cal := plan.Measure()
	b.Logf("calibration %+v", *cal)
	maxW := runtime.GOMAXPROCS(0)
	caps := []int{1}
	if maxW > 1 {
		caps = append(caps, maxW)
	}
	worst := make([]float64, len(caps))
	logSum := make([]float64, len(caps))
	n := 0
	for i := 0; i < b.N; i++ {
		clear(worst)
		clear(logSum)
		n = 0
		for _, rp := range regretSweep() {
			t := rp.times(b, maxW)
			for c, m := range caps {
				prob := rp.p
				prob.MaxWorkers = m
				choice, err := plan.Plan(prob, cal)
				if err != nil {
					b.Fatalf("%s: %v", rp.name, err)
				}
				best := regretKey{}
				for k, s := range t {
					if k.workers <= m && (best.engine == "" || s < t[best]) {
						best = k
					}
				}
				pick := regretKey{choice.Engine, choice.Workers}
				regret := t[pick] / t[best]
				worst[c] = math.Max(worst[c], regret)
				logSum[c] += math.Log(regret)
				if i == b.N-1 {
					b.Logf("%-30s w<=%d plan %s/%d %10.1fus  best %s/%d %10.1fus  regret %.3f",
						rp.name, m, pick.engine, pick.workers, 1e6*t[pick], best.engine, best.workers, 1e6*t[best], regret)
				}
			}
			n++
		}
	}
	for c, m := range caps {
		b.ReportMetric(worst[c], fmt.Sprintf("max-regret-w%d", m))
		b.ReportMetric(math.Exp(logSum[c]/float64(n)), fmt.Sprintf("geomean-regret-w%d", m))
	}
}

// regretProblem is one problem of the regret sweep with its operands.
type regretProblem struct {
	name string
	p    plan.Problem
	base plan.Instance // operands only; every timed run prepares a copy
}

// regretKey names one timed configuration.
type regretKey struct {
	engine  string
	workers int
}

// regretSweep builds the sweep's problems and their operands.
func regretSweep() []regretProblem {
	var out []regretProblem
	dense := func(name string, p plan.Problem, x *tensor.Dense) {
		fs := tensor.RandomFactors(43, p.Dims, p.R)
		out = append(out, regretProblem{name: name, p: p, base: plan.Instance{X: x, Factors: fs}})
	}
	shapes := [][]int{
		{8, 8}, {64, 64}, {1024, 1024},
		{4, 4, 4}, {16, 16, 16}, {64, 64, 64}, {128, 128, 128},
		{4, 4, 4, 4}, {8, 8, 8, 8}, {32, 32, 32, 32},
		{4, 4, 4, 4, 4}, {8, 8, 8, 8, 8}, {16, 16, 16, 16, 16},
		{2, 64, 64}, {64, 64, 2},
	}
	for _, dims := range shapes {
		x := tensor.RandomDense(42, dims...)
		for _, R := range []int{1, 8, 32} {
			dense(fmt.Sprintf("dense/%s/R%d", dimsName(dims), R), plan.Problem{Dims: dims, R: R, Mode: plan.AllModes}, x)
		}
	}
	cube := []int{64, 64, 64}
	x := tensor.RandomDense(42, cube...)
	dense("dense-mode1/64x64x64/R16", plan.Problem{Dims: cube, R: 16, Mode: 1}, x)
	dense("f32/64x64x64/R16", plan.Problem{Dims: cube, R: 16, Mode: plan.AllModes, DType: plan.F32}, x)
	sdims := []int{256, 256, 256}
	for _, nnz := range []int{1_000, 100_000} {
		coo := sparse.Random(44, nnz, sdims...)
		fs := tensor.RandomFactors(45, sdims, 16)
		for _, reuses := range []int{1, 25} {
			out = append(out, regretProblem{
				name: fmt.Sprintf("sparse/256^3/nnz%d/reuse%d", nnz, reuses),
				p:    plan.Problem{Dims: sdims, R: 16, Mode: plan.AllModes, NNZ: int64(nnz), Reuses: reuses},
				base: plan.Instance{COO: coo, Factors: fs},
			})
		}
	}
	tdims := []int{32, 32, 32, 32}
	x = tensor.RandomDense(46, tdims...)
	for _, ranks := range [][]int{{8, 8, 8, 8}, {16, 16, 4, 4}} {
		us := make([]*tensor.Matrix, len(tdims))
		for k := range us {
			us[k] = tensor.RandomMatrix(int64(47+k), tdims[k], ranks[k])
		}
		out = append(out, regretProblem{
			name: "tucker/32^4/ranks" + dimsName(ranks),
			p:    plan.Problem{Dims: tdims, R: ranks[0], Mode: plan.AllModes, Ranks: ranks},
			base: plan.Instance{X: x, Factors: us},
		})
	}
	return out
}

// times runs every supporting engine at every worker count up to maxW
// and returns each configuration's best time in seconds. The
// configurations take turns, so drift in the machine's speed reaches
// them alike: at least five rounds, more (up to 1000) while the rounds
// total under 100 ms.
func (rp regretProblem) times(b *testing.B, maxW int) map[regretKey]float64 {
	b.Helper()
	best := make(map[regretKey]float64)
	for _, name := range plan.Engines() {
		if eng, _ := plan.Lookup(name); eng.Supports(rp.p) {
			for w := 1; w <= maxW; w++ {
				best[regretKey{name, w}] = math.Inf(1)
			}
		}
	}
	start := time.Now()
	for round := 0; round < 1000 && (round < 5 || time.Since(start) < 100*time.Millisecond); round++ {
		for k := range best {
			best[k] = math.Min(best[k], rp.run(b, k))
		}
	}
	return best
}

// run times one planned run of configuration k: Prepare on a fresh
// Instance, then max(Reuses, 1) passes.
func (rp regretProblem) run(b *testing.B, k regretKey) float64 {
	b.Helper()
	eng, _ := plan.Lookup(k.engine)
	t0 := time.Now()
	inst := &plan.Instance{X: rp.base.X, COO: rp.base.COO, Factors: rp.base.Factors}
	if err := eng.Prepare(rp.p, inst); err != nil {
		b.Fatalf("%s %s: %v", rp.name, k.engine, err)
	}
	res := &plan.Result{}
	for pass := 0; pass < max(rp.p.Reuses, 1); pass++ {
		eng.Run(rp.p, inst, res, k.workers)
	}
	return time.Since(t0).Seconds()
}

// dimsName joins extents with "x".
func dimsName(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}
