package cpals

import (
	"fmt"
	"math"

	"repro/internal/dimtree"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// DecomposeTree runs CP-ALS with the prefix-partial reuse of Phan et
// al. (the paper's reference [13], flagged in Section VII): within a
// sweep, modes are updated in ascending order and the prefix partial
//
//	P_k = X x_1 a^(1)... contracted with the ALREADY-UPDATED factors
//	      of modes < k (a tensor over modes k..N-1 plus the rank index)
//
// is maintained incrementally, so B(k) = contract(P_k, old factors of
// modes > k) touches a rapidly shrinking partial instead of the whole
// tensor. It runs Decompose's sweep loop, so the update mathematics
// are identical — the fit trajectories match to rounding — but the
// arithmetic per sweep drops from ~N tensor passes to ~1 (plus
// lower-order partial traffic).
//
// The returned TraceEntry slice and model match Decompose for the same
// Options; the extra return reports total MTTKRP flops for comparison
// with N*RefFlops per sweep.
func DecomposeTree(x *tensor.Dense, opts Options) (*Model, []TraceEntry, int64, error) {
	return decomposePooled(x, opts, true)
}

// decomposePooled runs decompose on an engine borrowed from dimtree's
// pool, the one every DecomposeParallel rank borrows from too: its KRP
// panels, prefix partials and slab scratch grow to the largest
// contraction and are reused for the rest of the decomposition and by
// later runs.
func decomposePooled(x *tensor.Dense, opts Options, reuse bool) (*Model, []TraceEntry, int64, error) {
	eng := dimtree.GetEngine()
	eng.Workers = opts.Workers
	defer dimtree.PutEngine(eng)
	return decompose(eng, x, opts, reuse)
}

// decompose is the sequential CP-ALS sweep loop on the engine eng,
// walking the prefix schedule with its reuse on (DecomposeTree) or off
// (Decompose). It returns the MTTKRPs' flops beside the model and
// trace.
func decompose(eng *dimtree.Engine, x *tensor.Dense, opts Options, reuse bool) (*Model, []TraceEntry, int64, error) {
	if err := opts.check(x); err != nil {
		return nil, nil, 0, err
	}
	N := x.Order()
	factors := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	// The Grams and V, also the model norm's scratch, keep their R x R
	// buffers for the run.
	grams := make([]*tensor.Matrix, N)
	for k, f := range factors {
		grams[k] = tensor.NewMatrix(opts.R, opts.R)
		linalg.MatMulTransAInto(grams[k], f, f)
	}
	v := tensor.NewMatrix(opts.R, opts.R)
	normX := linalg.Norm(x.Data(), opts.Workers)
	if err := checkNorm(normX); err != nil {
		return nil, nil, 0, err
	}

	// Every MTTKRP result keeps its shape for the whole run, so bs[n]
	// holds B(n) in a buffer made once.
	tree := newPrefixTree(eng, x, opts.R, reuse)
	bs := make([]*tensor.Matrix, N)
	for n := range bs {
		bs[n] = tensor.NewMatrix(x.Dim(n), opts.R)
	}

	var totalFlops int64
	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		for n := 0; n < N; n++ {
			totalFlops += tree.mttkrp(bs[n], factors, n)

			hadamardGrams(v, grams, n)
			sspan := obs.Start(obs.PhaseSolve)
			err := solveFactor(factors[n], v, bs[n])
			sspan.Stop()
			if err != nil {
				return nil, nil, 0, fmt.Errorf("cpals: mode %d solve: %w", n, err)
			}
			gspan := obs.Start(obs.PhaseGram)
			linalg.MatMulTransAInto(grams[n], factors[n], factors[n])
			gspan.Stop()

			totalFlops += tree.advance(factors, n)
		}
		fspan := obs.Start(obs.PhaseFit)
		fit = computeFit(normX, linalg.Dot(bs[N-1], factors[N-1]), v, grams)
		fspan.Stop()
		trace = append(trace, TraceEntry{Iter: it, Fit: fit})
		if fit-prevFit < opts.Tol && it > 0 {
			break
		}
		prevFit = fit
		if opts.Normalize {
			rebalance(factors)
			for k, f := range factors {
				linalg.MatMulTransAInto(grams[k], f, f)
			}
		}
	}
	return &Model{Factors: factors, Fit: fit}, trace, totalFlops, nil
}

// prefixTree is the MTTKRP schedule of one ALS sweep with Phan et
// al.'s prefix-partial reuse, the one schedule Decompose,
// DecomposeTree and every rank of DecomposeParallel walk. Modes are
// updated in ascending order; for each mode n the solver calls
// mttkrp(n), replaces factor n, then calls advance(n). With reuse on
// the tensor is contracted twice per sweep (for B(0) and P_1) and
// every other contraction reads a prefix partial; with reuse off every
// B(n) is one contraction of the tensor and nothing advances.
type prefixTree struct {
	eng *dimtree.Engine
	x   *tensor.Dense
	R   int

	// prefixes[n] views P_n (modes n..N-1 plus r; P_0 is the tensor
	// itself) in one of the engine's two held buffers, which alternate
	// since P_{n+1} is contracted out of P_n. It is nil with reuse off.
	prefixes []*tensor.Dense
}

// newPrefixTree returns the schedule over x at rank R, contracting
// with eng and, with reuse on, keeping its prefix partials in eng's
// held buffers. It returns a value, which stays on the caller's stack:
// the function is too large to inline, so a pointer would escape.
func newPrefixTree(eng *dimtree.Engine, x *tensor.Dense, R int, reuse bool) prefixTree {
	t := prefixTree{eng: eng, x: x, R: R}
	if reuse {
		t.prefixes = prefixViews(eng, x.Dims(), R)
	}
	return t
}

// mttkrp writes B(n) into b and returns its flops: all modes but n
// dropped from P_n (the tensor, with reuse off), contracting with the
// factors of the other modes not yet dropped.
func (t *prefixTree) mttkrp(b *tensor.Matrix, factors []*tensor.Matrix, n int) int64 {
	if n == 0 || t.prefixes == nil {
		return t.eng.ContractTensorInto(b.Data(), t.x, factors, t.R, n, n+1)
	}
	return t.eng.ContractPartialInto(b.Data(), t.prefixes[n], n, factors, t.R, n, n+1)
}

// advance contracts mode n of P_n with factors[n], which must hold the
// mode's update, into P_{n+1}, and returns its flops. After the last
// mode, or with reuse off, there is nothing to advance.
func (t *prefixTree) advance(factors []*tensor.Matrix, n int) int64 {
	N := t.x.Order()
	switch {
	case t.prefixes == nil || n == N-1:
		return 0
	case n == 0:
		return t.eng.ContractTensorInto(t.prefixes[1].Data(), t.x, factors, t.R, 1, N)
	}
	return t.eng.ContractPartialInto(t.prefixes[n+1].Data(), t.prefixes[n], n, factors, t.R, n+1, N)
}

// prefixViews returns the prefix partials' views for an order-N
// tensor of the given extents at rank R: entry n (1 <= n < N) has
// extents dims[n:] then R, and entries of one parity share eng's held
// buffer of that parity, sized for the largest of them (entry 0, the
// tensor, is nil).
func prefixViews(eng *dimtree.Engine, dims []int, R int) []*tensor.Dense {
	N := len(dims)
	sizes := make([]int, N)
	var bufLen [2]int
	for n := 1; n < N; n++ {
		sizes[n] = R
		for _, d := range dims[n:] {
			sizes[n] *= d
		}
		bufLen[n%2] = max(bufLen[n%2], sizes[n])
	}
	bufs := [2][]float64{eng.Held(0, bufLen[0]), eng.Held(1, bufLen[1])}
	views := make([]*tensor.Dense, N)
	for n := 1; n < N; n++ {
		shape := append(append([]int(nil), dims[n:]...), R)
		views[n] = tensor.NewDenseFromData(bufs[n%2][:sizes[n]], shape...)
	}
	return views
}
