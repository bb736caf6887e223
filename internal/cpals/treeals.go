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
	if err := opts.fill(); err != nil {
		return nil, nil, 0, err
	}
	N := x.Order()
	if N < 2 {
		return nil, nil, 0, fmt.Errorf("cpals: tensor order %d", N)
	}
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
	// once and are reused for the rest of the decomposition.
	eng := dimtree.NewEngine(opts.Workers)

	// Every MTTKRP result and prefix partial keeps its shape for the
	// whole run, so each lives in a buffer made once: bs[n] holds B(n),
	// and prefixes[n] views P_n (modes n..N-1 plus r; P_0 is the tensor
	// itself) in one of two buffers that alternate, since P_{n+1} is
	// contracted out of P_n.
	bs := make([]*tensor.Matrix, N)
	for n := range bs {
		bs[n] = tensor.NewMatrix(x.Dim(n), opts.R)
	}
	prefixes := prefixViews(x.Dims(), opts.R)
	modes := make([]int, N)
	for i := range modes {
		modes[i] = i
	}

	var totalFlops int64
	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		for n := 0; n < N; n++ {
			// B(n): drop all modes but n from the prefix.
			b := bs[n]
			if n == 0 {
				totalFlops += eng.ContractTensorInto(b.Data(), x, factors, opts.R, modes[:1])
			} else {
				totalFlops += eng.ContractPartialInto(b.Data(), prefixes[n], modes[n:], factors, opts.R, modes[n:n+1])
			}

			v := hadamardGrams(grams, n, opts.R)
			sspan := obs.Start(obs.PhaseSolve)
			err := solveFactor(factors[n], v, b)
			sspan.Stop()
			if err != nil {
				return nil, nil, 0, fmt.Errorf("cpals: mode %d solve: %w", n, err)
			}
			gspan := obs.Start(obs.PhaseGram)
			grams[n] = linalg.Gram(factors[n])
			gspan.Stop()

			// Advance the prefix: contract mode n with the updated
			// factor (not needed after the last mode).
			if n < N-1 {
				if n == 0 {
					totalFlops += eng.ContractTensorInto(prefixes[1].Data(), x, factors, opts.R, modes[1:])
				} else {
					totalFlops += eng.ContractPartialInto(prefixes[n+1].Data(), prefixes[n], modes[n:], factors, opts.R, modes[n+1:])
				}
			}
		}
		fspan := obs.Start(obs.PhaseFit)
		fit = computeFit(normX, bs[N-1], factors[N-1], grams)
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
