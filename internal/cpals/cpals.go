// Package cpals implements the CP decomposition via alternating least
// squares (Section II-A), the application whose per-iteration
// bottleneck is the MTTKRP this library optimizes. A sequential solver
// and a fully distributed solver (built on the Algorithm 3 data
// distribution and collectives) are provided; the distributed solver
// reports how its communication splits between MTTKRP and the rest of
// the iteration, substantiating the paper's premise that MTTKRP
// dominates.
package cpals

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options configures a CP-ALS run.
type Options struct {
	R        int // decomposition rank
	MaxIters int // maximum ALS sweeps (default 50)

	// Tol stops the run after a sweep whose fit improves on the
	// previous sweep's by less than Tol. 0 selects the default 1e-8; a
	// negative Tol such as math.Inf(-1) runs every sweep.
	Tol     float64
	Seed    int64 // factor initialization seed
	Workers int   // MTTKRP goroutines (<= 0: linalg package default)

	// Normalize rebalances the factor column norms after every sweep
	// (the standard lambda handling): each rank-one component's
	// magnitude is spread evenly across the N factors, leaving the
	// model unchanged but keeping Gram matrices well-conditioned over
	// long runs. Decompose and DecomposeTree honour it;
	// DecomposeParallel rejects it.
	Normalize bool
}

// check fills o's defaults and rejects what no solver runs: a rank
// below 1, a negative MaxIters, or x of order below 2. Every entry
// point calls it before any work.
func (o *Options) check(x *tensor.Dense) error {
	if o.R < 1 {
		return fmt.Errorf("cpals: rank %d", o.R)
	}
	if o.MaxIters == 0 {
		o.MaxIters = 50
	}
	if o.MaxIters < 1 {
		return fmt.Errorf("cpals: MaxIters %d", o.MaxIters)
	}
	if o.Tol == 0 { //repro:bitwise unset-option sentinel, exact
		o.Tol = 1e-8
	}
	if x.Order() < 2 {
		return fmt.Errorf("cpals: tensor order %d", x.Order())
	}
	return nil
}

// Model is a computed CP decomposition: X ~ sum_r prod_k A(k)(:, r).
type Model struct {
	Factors []*tensor.Matrix
	Fit     float64 // 1 - ||X - Xhat|| / ||X||
}

// Reconstruct materializes the model's rank-R tensor.
func (m *Model) Reconstruct() *tensor.Dense {
	return tensor.FromFactors(m.Factors)
}

// TraceEntry records one ALS sweep.
type TraceEntry struct {
	Iter int
	Fit  float64
}

// Decompose runs sequential CP-ALS.
func Decompose(x *tensor.Dense, opts Options) (*Model, []TraceEntry, error) {
	if err := opts.check(x); err != nil {
		return nil, nil, err
	}
	N := x.Order()
	factors := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	grams := make([]*tensor.Matrix, N)
	for k, f := range factors {
		grams[k] = linalg.Gram(f)
	}
	// MTTKRP state reused across all sweeps: one workspace plus one
	// output buffer per mode, so the per-iteration bottleneck runs
	// through the KRP-splitting engine with zero steady-state
	// allocations. The pooled workspace is taken before the norm's
	// parallel section, as in tucker.Decompose.
	ws := kernel.GetWorkspace()
	defer kernel.PutWorkspace(ws)
	normX := linalg.Norm(x.Data(), opts.Workers)
	if normX == 0 { //repro:bitwise zero-tensor guard: norm is exactly 0 iff all entries are 0
		return nil, nil, fmt.Errorf("cpals: zero tensor")
	}
	bs := make([]*tensor.Matrix, N)
	for n := 0; n < N; n++ {
		bs[n] = tensor.NewMatrix(x.Dim(n), opts.R)
	}

	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		var lastB *tensor.Matrix
		for n := 0; n < N; n++ {
			b := bs[n]
			kernel.FastInto(b, x, factors, n, opts.Workers, ws)
			v := hadamardGrams(grams, n, opts.R)
			sspan := obs.Start(obs.PhaseSolve)
			err := solveFactor(factors[n], v, b)
			sspan.Stop()
			if err != nil {
				return nil, nil, fmt.Errorf("cpals: mode %d solve: %w", n, err)
			}
			gspan := obs.Start(obs.PhaseGram)
			grams[n] = linalg.Gram(factors[n])
			gspan.Stop()
			lastB = b
		}
		fspan := obs.Start(obs.PhaseFit)
		fit = computeFit(normX, linalg.Dot(lastB, factors[N-1]), grams)
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
	return &Model{Factors: factors, Fit: fit}, trace, nil
}

// rebalance spreads each rank-one component's magnitude evenly across
// the factors: column r of every factor is scaled to carry
// (prod_k ||a_r^(k)||)^(1/N). The represented tensor is unchanged.
func rebalance(factors []*tensor.Matrix) {
	N := len(factors)
	R := factors[0].Cols()
	for r := 0; r < R; r++ {
		lambda := 1.0
		norms := make([]float64, N)
		for k, f := range factors {
			col := f.Col(r)
			var s float64
			for _, v := range col {
				s += v * v
			}
			norms[k] = math.Sqrt(s)
			lambda *= norms[k]
		}
		if lambda == 0 { //repro:bitwise exact-zero guard before division
			continue
		}
		target := math.Pow(lambda, 1/float64(N))
		for k, f := range factors {
			if norms[k] == 0 { //repro:bitwise exact-zero guard before division
				continue
			}
			scale := target / norms[k]
			col := f.Col(r)
			for i := range col {
				col[i] *= scale
			}
		}
	}
}

// hadamardGrams returns the Hadamard product of all Gram matrices
// except mode n — the normal-equations matrix V of the ALS subproblem.
func hadamardGrams(grams []*tensor.Matrix, n, R int) *tensor.Matrix {
	v := tensor.NewMatrix(R, R)
	v.Fill(1)
	for k, g := range grams {
		if k == n {
			continue
		}
		v = tensor.Hadamard(v, g)
	}
	return v
}

// solveFactor overwrites the factor a with B V^{-1}, the solution of
// the normal equations A V = B: B is copied into a's storage and solved
// there in place. a's old values are dead by then — B already holds
// their only use — and B itself stays intact for the fit.
func solveFactor(a, v, b *tensor.Matrix) error {
	copy(a.Data(), b.Data())
	return linalg.SolveSPDRight(v, a)
}

// computeFit evaluates 1 - ||X - Xhat||/||X|| using the standard
// identity: ||X - Xhat||^2 = ||X||^2 - 2<X, Xhat> + ||Xhat||^2, where
// inner = <X, Xhat> = <B(n), A(n)> for the last updated mode n and
// ||Xhat||^2 = 1' (hadamard of all Grams) 1.
func computeFit(normX, inner float64, grams []*tensor.Matrix) float64 {
	R := grams[0].Cols()
	all := tensor.NewMatrix(R, R)
	all.Fill(1)
	for _, g := range grams {
		all = tensor.Hadamard(all, g)
	}
	normHat2 := linalg.SumAll(all)
	resid2 := normX*normX - 2*inner + normHat2
	if resid2 < 0 {
		resid2 = 0
	}
	return 1 - math.Sqrt(resid2)/normX
}
