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
// tensor. The update mathematics are identical to Decompose — the fit
// trajectories match to rounding — but the arithmetic per sweep drops
// from ~N tensor passes to ~1 (plus lower-order partial traffic).
//
// The returned TraceEntry slice and model match Decompose for the same
// Options; the extra return reports total MTTKRP flops for comparison
// with N*RefFlops per sweep.
func DecomposeTree(x *tensor.Dense, opts Options) (*Model, []TraceEntry, int64, error) {
	if err := opts.check(x); err != nil {
		return nil, nil, 0, err
	}
	N := x.Order()
	factors := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	grams := make([]*tensor.Matrix, N)
	for k, f := range factors {
		grams[k] = linalg.Gram(f)
	}
	normX := linalg.Norm(x.Data(), opts.Workers)
	if normX == 0 { //repro:bitwise zero-tensor guard: norm is exactly 0 iff all entries are 0
		return nil, nil, 0, fmt.Errorf("cpals: zero tensor")
	}

	// One GEMM engine for every contraction in the run: its KRP panels,
	// partial stack, and slab scratch grow to the largest contraction
	// once and are reused for the rest of the decomposition. Every
	// MTTKRP result keeps its shape for the whole run, so bs[n] holds
	// B(n) in a buffer made once.
	tree := newPrefixTree(dimtree.NewEngine(opts.Workers), x, opts.R)
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

			v := hadamardGrams(grams, n, opts.R)
			sspan := obs.Start(obs.PhaseSolve)
			err := solveFactor(factors[n], v, bs[n])
			sspan.Stop()
			if err != nil {
				return nil, nil, 0, fmt.Errorf("cpals: mode %d solve: %w", n, err)
			}
			gspan := obs.Start(obs.PhaseGram)
			grams[n] = linalg.Gram(factors[n])
			gspan.Stop()

			totalFlops += tree.advance(factors, n)
		}
		fspan := obs.Start(obs.PhaseFit)
		fit = computeFit(normX, linalg.Dot(bs[N-1], factors[N-1]), grams)
		fspan.Stop()
		trace = append(trace, TraceEntry{Iter: it, Fit: fit})
		if fit-prevFit < opts.Tol && it > 0 {
			break
		}
		prevFit = fit
		if opts.Normalize {
			rebalance(factors)
			for k, f := range factors {
				grams[k] = linalg.Gram(f)
			}
		}
	}
	return &Model{Factors: factors, Fit: fit}, trace, totalFlops, nil
}

// prefixTree is the MTTKRP schedule of one ALS sweep with Phan et
// al.'s prefix-partial reuse, the one schedule DecomposeTree and every
// rank of DecomposeParallel walk. Modes are updated in ascending
// order; for each mode n the solver calls mttkrp(n), replaces factor
// n, then calls advance(n). The tensor is contracted twice per sweep
// (for B(0) and P_1); every other contraction reads a prefix partial.
type prefixTree struct {
	eng *dimtree.Engine
	x   *tensor.Dense
	R   int

	// prefixes[n] views P_n (modes n..N-1 plus r; P_0 is the tensor
	// itself) in one of two buffers made once, which alternate since
	// P_{n+1} is contracted out of P_n.
	prefixes []*tensor.Dense
	modes    []int // 0, 1, ..., N-1
}

// newPrefixTree returns the schedule over x at rank R, contracting
// with eng.
func newPrefixTree(eng *dimtree.Engine, x *tensor.Dense, R int) *prefixTree {
	modes := make([]int, x.Order())
	for i := range modes {
		modes[i] = i
	}
	return &prefixTree{eng: eng, x: x, R: R, prefixes: prefixViews(x.Dims(), R), modes: modes}
}

// mttkrp writes B(n) into b and returns its flops: all modes but n
// dropped from P_n, contracting with the factors of modes > n.
func (t *prefixTree) mttkrp(b *tensor.Matrix, factors []*tensor.Matrix, n int) int64 {
	if n == 0 {
		return t.eng.ContractTensorInto(b.Data(), t.x, factors, t.R, t.modes[:1])
	}
	return t.eng.ContractPartialInto(b.Data(), t.prefixes[n], t.modes[n:], factors, t.R, t.modes[n:n+1])
}

// advance contracts mode n of P_n with factors[n], which must hold the
// mode's update, into P_{n+1}, and returns its flops. After the last
// mode there is nothing to advance.
func (t *prefixTree) advance(factors []*tensor.Matrix, n int) int64 {
	switch {
	case n == len(t.modes)-1:
		return 0
	case n == 0:
		return t.eng.ContractTensorInto(t.prefixes[1].Data(), t.x, factors, t.R, t.modes[1:])
	}
	return t.eng.ContractPartialInto(t.prefixes[n+1].Data(), t.prefixes[n], t.modes[n:], factors, t.R, t.modes[n+1:])
}

// prefixViews returns the prefix partials' views for an order-N
// tensor of the given extents at rank R: entry n (1 <= n < N) has
// extents dims[n:] then R, and entries of one parity share a buffer
// sized for the largest of them (entry 0, the tensor, is nil).
func prefixViews(dims []int, R int) []*tensor.Dense {
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
	bufs := [2][]float64{make([]float64, bufLen[0]), make([]float64, bufLen[1])}
	views := make([]*tensor.Dense, N)
	for n := 1; n < N; n++ {
		shape := append(append([]int(nil), dims[n:]...), R)
		views[n] = tensor.NewDenseFromData(bufs[n%2][:sizes[n]], shape...)
	}
	return views
}
