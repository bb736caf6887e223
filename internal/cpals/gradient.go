package cpals

import (
	"fmt"
	"math"

	"repro/internal/dimtree"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// This file implements the *gradient-based* CP optimization route of
// Section II-A: "the gradients with respect to all factor matrices are
// computed and used to determine the variable updates. In both cases
// [ALS and gradient], setting up the normal equations and computing
// the gradient are bottlenecked by ... MTTKRP." All N MTTKRPs use the
// same factors here, which is exactly the case where the dimension
// tree (package dimtree) shares partial contractions across modes.

// Objective returns f(A) = 0.5 * ||X - Xhat||^2 together with the
// all-modes MTTKRP results it is computed from.
func Objective(x *tensor.Dense, factors []*tensor.Matrix) (float64, *dimtree.Result) {
	return ObjectiveWorkers(x, factors, 0)
}

// ObjectiveWorkers is Objective with an explicit goroutine count for
// the dimension-tree multi-MTTKRP (<= 0: linalg package default).
func ObjectiveWorkers(x *tensor.Dense, factors []*tensor.Matrix, workers int) (float64, *dimtree.Result) {
	f, res, _ := objective(x, factors, linalg.SumSquares(x.Data(), workers), workers)
	return f, res
}

// objective is ObjectiveWorkers given normX2 = ||X||^2, also returning
// the factors' Grams it forms.
func objective(x *tensor.Dense, factors []*tensor.Matrix, normX2 float64, workers int) (float64, *dimtree.Result, []*tensor.Matrix) {
	res := dimtree.AllModesWorkers(x, factors, workers)
	grams := make([]*tensor.Matrix, len(factors))
	for k, f := range factors {
		grams[k] = linalg.Gram(f)
	}
	inner := linalg.Dot(res.B[0], factors[0]) // <X, Xhat> via any mode
	R := factors[0].Cols()
	f := 0.5 * (normX2 - 2*inner + modelNorm2(tensor.NewMatrix(R, R), grams))
	if f < 0 {
		f = 0
	}
	return f, res, grams
}

// Gradient returns the gradients dF/dA(n) = A(n)*Gamma(n) - B(n) for
// all modes, the objective value, and the shared-MTTKRP flop count.
func Gradient(x *tensor.Dense, factors []*tensor.Matrix) ([]*tensor.Matrix, float64, int64) {
	return GradientWorkers(x, factors, 0)
}

// GradientWorkers is Gradient with an explicit goroutine count for the
// dimension-tree multi-MTTKRP (<= 0: linalg package default).
func GradientWorkers(x *tensor.Dense, factors []*tensor.Matrix, workers int) ([]*tensor.Matrix, float64, int64) {
	return gradient(x, factors, linalg.SumSquares(x.Data(), workers), workers)
}

// gradient is GradientWorkers given normX2 = ||X||^2.
func gradient(x *tensor.Dense, factors []*tensor.Matrix, normX2 float64, workers int) ([]*tensor.Matrix, float64, int64) {
	f, res, grams := objective(x, factors, normX2, workers)
	R := factors[0].Cols()
	grads := make([]*tensor.Matrix, len(factors))
	for n := range grads {
		gamma := tensor.NewMatrix(R, R)
		hadamardGrams(gamma, grams, n)
		g := linalg.MatMul(factors[n], gamma)
		g.Add(-1, res.B[n])
		grads[n] = g
	}
	return grads, f, res.Flops
}

// GradOptions configures DecomposeGradient.
type GradOptions struct {
	R        int
	MaxIters int     // default 200
	Tol      float64 // stop when the relative objective decrease < Tol (default 1e-10)
	Seed     int64
	Step0    float64 // initial step size (default 1e-2, adapted by backtracking)
	Workers  int     // MTTKRP goroutines (<= 0: linalg package default)

	// Init warm-starts from the given factors (cloned) instead of a
	// random initialization — e.g. a few ALS sweeps, the standard
	// CP-OPT practice. Shapes must match the tensor and R.
	Init []*tensor.Matrix
}

func (o *GradOptions) fill() error {
	if o.R < 1 {
		return fmt.Errorf("cpals: rank %d", o.R)
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
	if o.MaxIters < 1 {
		return fmt.Errorf("cpals: MaxIters %d", o.MaxIters)
	}
	if o.Tol == 0 { //repro:bitwise unset-option sentinel, exact
		o.Tol = 1e-10
	}
	if o.Step0 == 0 { //repro:bitwise unset-option sentinel, exact
		o.Step0 = 1e-2
	}
	if o.Step0 <= 0 {
		return fmt.Errorf("cpals: Step0 %v", o.Step0)
	}
	return nil
}

// GradTraceEntry records one gradient-descent iteration.
type GradTraceEntry struct {
	Iter      int
	Objective float64
	GradNorm  float64
	Step      float64
}

// DecomposeGradient fits a CP model by gradient descent with Armijo
// backtracking line search, computing all per-mode gradients from one
// dimension-tree pass per objective evaluation.
func DecomposeGradient(x *tensor.Dense, opts GradOptions) (*Model, []GradTraceEntry, error) {
	if err := opts.fill(); err != nil {
		return nil, nil, err
	}
	if x.Order() < 2 {
		return nil, nil, fmt.Errorf("cpals: tensor order %d", x.Order())
	}
	normX2 := linalg.SumSquares(x.Data(), opts.Workers)
	normX := math.Sqrt(normX2)
	if err := checkNorm(normX); err != nil {
		return nil, nil, err
	}
	var factors []*tensor.Matrix
	if opts.Init != nil {
		R, err := tensor.CheckFactors(x, opts.Init, tensor.AllModes)
		if err == nil && R != opts.R {
			err = fmt.Errorf("rank %d, want %d", R, opts.R)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("cpals: init factors: %w", err)
		}
		factors = make([]*tensor.Matrix, len(opts.Init))
		for k, f := range opts.Init {
			factors[k] = f.Clone()
		}
	} else {
		// Small random init keeps the first iterations well-conditioned.
		factors = tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
		for _, f := range factors {
			for i, v := range f.Data() {
				f.Data()[i] = 0.3 * v
			}
		}
	}

	step := opts.Step0
	const c1 = 1e-4
	var trace []GradTraceEntry
	f := math.Inf(1)
	for it := 0; it < opts.MaxIters; it++ {
		grads, fcur, _ := gradient(x, factors, normX2, opts.Workers)
		f = fcur
		gnorm2 := 0.0
		for _, g := range grads {
			n := g.Norm()
			gnorm2 += n * n
		}
		trace = append(trace, GradTraceEntry{Iter: it, Objective: fcur, GradNorm: math.Sqrt(gnorm2), Step: step})
		if math.Sqrt(gnorm2) < 1e-12 {
			break
		}

		// Backtracking: shrink until the Armijo condition holds.
		accepted := false
		for try := 0; try < 40; try++ {
			cand := make([]*tensor.Matrix, len(factors))
			for k, fac := range factors {
				c := fac.Clone()
				c.Add(-step, grads[k])
				cand[k] = c
			}
			fNew, _, _ := objective(x, cand, normX2, opts.Workers)
			if fNew <= fcur-c1*step*gnorm2 {
				factors = cand
				f = fNew
				accepted = true
				step *= 1.2 // optimistic growth for the next iteration
				break
			}
			step *= 0.5
		}
		if !accepted {
			break // line search stalled: we are at (numerical) optimality
		}
		if fcur-f < opts.Tol*math.Max(1, fcur) && it > 0 {
			break
		}
	}

	fit := 1 - math.Sqrt(2*f)/normX
	return &Model{Factors: factors, Fit: fit}, trace, nil
}
