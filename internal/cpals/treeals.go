package cpals

import (
	"fmt"
	"math"

	"repro/internal/dimtree"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// DecomposeTree runs CP-ALS with the partial-contraction reuse of
// Phan et al. (the paper's reference [13], flagged in Section VII):
// each sweep is one walk of package dimtree's balanced dimension tree
// (Engine.Sweep), and mode n is solved as soon as the walk forms B(n).
// The walk's order is the ALS order — B(n) contracts the modes below n
// with their updated factors and the modes above n with the previous
// sweep's — so it runs Decompose's sweep loop with the same update
// mathematics and the fit trajectories match to rounding (at order 3
// or below, bitwise the prefix-partial schedule of Phan et al.). Only
// the two root contractions read the whole tensor, so the arithmetic
// per sweep drops from N tensor passes to two, plus lower-order
// partial work.
//
// The returned TraceEntry slice and model match Decompose for the same
// Options; the extra return reports total MTTKRP flops for comparison
// with N*RefFlops per sweep.
func DecomposeTree(x *tensor.Dense, opts Options) (*Model, []TraceEntry, int64, error) {
	return decomposePooled(x, opts, true)
}

// decomposePooled runs decompose on an engine borrowed from dimtree's
// pool, the one every DecomposeParallel rank borrows from too: its KRP
// panels, partial slots and slab scratch grow to the largest
// contraction and are reused for the rest of the decomposition and by
// later runs.
func decomposePooled(x *tensor.Dense, opts Options, reuse bool) (*Model, []TraceEntry, int64, error) {
	eng := dimtree.GetEngine()
	eng.Workers = opts.Workers
	defer dimtree.PutEngine(eng)
	return decompose(eng, x, opts, reuse)
}

// decompose is the sequential CP-ALS sweep loop on the engine eng.
// With reuse on (DecomposeTree) each sweep is one Engine.Sweep whose
// leaves solve their modes; with it off (Decompose) each B(n) is one
// contraction of the whole tensor. It returns the MTTKRPs' flops
// beside the model and trace.
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
	bs := make([]*tensor.Matrix, N)
	for n := range bs {
		bs[n] = tensor.NewMatrix(x.Dim(n), opts.R)
	}
	// solve replaces factor n by its least-squares update from B(n)
	// and refreshes its Gram.
	solve := func(n int) error {
		hadamardGrams(v, grams, n)
		sspan := obs.Start(obs.PhaseSolve)
		err := solveFactor(factors[n], v, bs[n])
		sspan.Stop()
		if err != nil {
			return fmt.Errorf("cpals: mode %d solve: %w", n, err)
		}
		gspan := obs.Start(obs.PhaseGram)
		linalg.MatMulTransAInto(grams[n], factors[n], factors[n])
		gspan.Stop()
		return nil
	}

	var totalFlops int64
	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		var err error
		if reuse {
			var fl int64
			fl, err = eng.Sweep(bs, x, factors, opts.R, solve)
			totalFlops += fl
		} else {
			for n := 0; n < N && err == nil; n++ {
				totalFlops += eng.ContractTensorInto(bs[n].Data(), x, factors, opts.R, n, n+1)
				err = solve(n)
			}
		}
		if err != nil {
			return nil, nil, 0, err
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
