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
	normX := x.Norm()
	if normX == 0 { //repro:bitwise zero-tensor guard: norm is exactly 0 iff all entries are 0
		return nil, nil, 0, fmt.Errorf("cpals: zero tensor")
	}

	// One GEMM engine for every contraction in the run: its KRP panels,
	// partial stack, and slab scratch grow to the largest contraction
	// once and are reused for the rest of the decomposition.
	eng := dimtree.NewEngine(opts.Workers)

	var totalFlops int64
	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		// Prefix partial over modes k..N-1 (plus r); starts as the
		// tensor itself (no r index yet).
		var prefix *tensor.Dense
		prefixModes := make([]int, N)
		for i := range prefixModes {
			prefixModes[i] = i
		}
		var lastB *tensor.Matrix
		for n := 0; n < N; n++ {
			modes := prefixModes[n:]
			// B(n): drop all modes but n from the prefix.
			var bPart *tensor.Dense
			var fl int64
			if prefix == nil {
				bPart, fl = eng.ContractTensor(x, factors, opts.R, []int{n})
			} else {
				bPart, fl = eng.ContractPartial(prefix, modes, factors, opts.R, []int{n})
			}
			totalFlops += fl
			b := tensor.NewMatrixFromData(bPart.Data(), x.Dim(n), opts.R)

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
			lastB = b

			// Advance the prefix: contract mode n with the updated
			// factor (not needed after the last mode).
			if n < N-1 {
				if prefix == nil {
					prefix, fl = eng.ContractTensor(x, factors, opts.R, prefixModes[n+1:])
				} else {
					prefix, fl = eng.ContractPartial(prefix, modes, factors, opts.R, prefixModes[n+1:])
				}
				totalFlops += fl
			}
		}
		fspan := obs.Start(obs.PhaseFit)
		fit = computeFit(normX, lastB, factors[N-1], grams)
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
