// Package tucker computes Tucker decompositions by sequentially
// truncated HOSVD and HOOI (higher-order orthogonal iteration) on the
// TTM substrate — the second decomposition family the paper names
// (Section I) and the one its conclusion extends the lower-bound
// machinery toward. A Tucker model is a small core G and per-mode
// orthonormal factors U_k with
//
//	X ~ G x_1 U_1 x_2 U_2 ... x_N U_N.
//
// Both solvers run on the blocked TTM engine (internal/ttm). The
// initialization is ST-HOSVD (ttm.TruncateInto): each mode's factor
// comes from the Gram of X already truncated in the modes before it,
// in a mode order planned from the shapes to the fewest flops — the
// trailing mode first at uniform ranks — so only the first mode's
// Gram and contraction read X. A HOOI sweep computes its N mode
// projections with ttm.TreeInto, which shares their partial
// contractions on a dimension tree of contiguous mode ranges planned
// from the shapes to the fewest multiply-adds, never more than N
// separate chains take. At uniform ranks that is the balanced tree
// CP's dimtree engine walks, and a sweep reads X twice (the root's two
// children) instead of N+1: the core is one TTM of the last leaf's
// projection, which already holds X contracted on every other mode
// with the final factors.
// Every contraction is GEMM over contiguous slabs and every mode Gram
// a symmetric rank-k update, with a reused workspace, so the
// initialization and steady-state sweeps allocate nothing outside the
// eigensolves. Each factor is the leading eigenvectors of a mode Gram
// from linalg.SymEig (Householder tridiagonalization plus
// implicit-shift QL, O(I_k^3)); the initialization's and HOOI's
// eigensolves are timed as the obs solve phase. The core returned by
// Decompose is the one its last fit phase computed, and every fit
// goes through one formula with a rounding floor (fitFromCore).
package tucker

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// Options configures a Tucker decomposition.
type Options struct {
	Ranks    []int // multilinear ranks, one per mode
	MaxIters int   // HOOI sweeps (0 selects 25; for no sweeps call HOSVD)

	// Tol stops the run after a sweep whose fit improves on the
	// previous sweep's by less than Tol. 0 selects the default 1e-8; a
	// negative Tol such as math.Inf(-1) runs every sweep.
	Tol float64

	// Workers is the TTM engine's worker count for chains and Grams
	// (<= 0 selects the linalg default). Results are bitwise identical
	// for every worker count.
	Workers int

	// Init provides explicit initial factors (orthonormal columns,
	// I_k x Ranks[k]) instead of the ST-HOSVD initialization. Used by
	// the distributed solver's parity tests.
	Init []*tensor.Matrix
}

// Model is a computed Tucker decomposition.
type Model struct {
	Core    *tensor.Dense    // R_1 x ... x R_N
	Factors []*tensor.Matrix // U_k: I_k x R_k, orthonormal columns
	Fit     float64          // 1 - ||X - Xhat|| / ||X||
}

// TraceEntry records one HOOI sweep.
type TraceEntry struct {
	Iter int
	Fit  float64
}

// Reconstruct materializes X-hat = G x_1 U_1 ... x_N U_N.
func (m *Model) Reconstruct() *tensor.Dense {
	out := m.Core
	for k, u := range m.Factors {
		// Expanding R_k back to I_k contracts mode k against U's
		// columns; the transposed-TTM variant does that directly, so no
		// transpose of U is ever materialized.
		out = ttm.TTMT(out, u, k)
	}
	return out
}

// Decompose runs the sequentially truncated HOSVD initialization
// followed by HOOI sweeps.
func Decompose(x *tensor.Dense, opts Options) (*Model, []TraceEntry, error) {
	N := x.Order()
	if err := checkRanks(x, opts.Ranks); err != nil {
		return nil, nil, err
	}
	if opts.MaxIters < 0 {
		return nil, nil, fmt.Errorf("tucker: MaxIters %d", opts.MaxIters)
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 25
	}
	if opts.Tol == 0 { //repro:bitwise unset-option sentinel, exact
		opts.Tol = 1e-8
	}
	// Take the pooled workspace before the norm's parallel section,
	// whose join can move this goroutine to another P: a sync.Pool Put
	// sits in the putting P's private slot, which no other P can take,
	// so back-to-back runs would miss the pool.
	w := opts.Workers
	ws := ttm.GetWorkspace()
	defer ttm.PutWorkspace(ws)
	normX := linalg.Norm(x.Data(), w)
	if normX == 0 { //repro:bitwise zero-tensor guard: norm is exactly 0 iff all entries are 0
		return nil, nil, fmt.Errorf("tucker: zero tensor")
	}
	dims := x.Dims()
	grams := gramViews(dims)

	// Initialize: explicit factors if given, else ST-HOSVD's (mode k's
	// factor from the Gram of X already truncated in the modes before
	// it). HOOI needs no initial core, so the truncation skips its last
	// contraction.
	factors := make([]*tensor.Matrix, N)
	if opts.Init != nil {
		if len(opts.Init) != N {
			return nil, nil, fmt.Errorf("tucker: %d init factors for order-%d tensor", len(opts.Init), N)
		}
		for k, u := range opts.Init {
			if u == nil || u.Rows() != x.Dim(k) || u.Cols() != opts.Ranks[k] {
				return nil, nil, fmt.Errorf("tucker: init factor %d has wrong shape", k)
			}
			factors[k] = u.Clone()
		}
	} else if err := truncate(nil, x, opts.Ranks, factors, grams, w, ws); err != nil {
		return nil, nil, err
	}

	// The mode-k projection keeps extent I_k on mode k and R_j
	// elsewhere, so its shape is fixed for the whole run; like the
	// Gram views, the projection views share one buffer and the core
	// has its own.
	ys := projectionViews(dims, opts.Ranks)
	coreBuf := tensor.NewDense(opts.Ranks...)

	// A HOOI sweep updates the factors in ascending mode order: mode
	// k's factor is the leading eigenvectors of the mode-k Gram of
	// Y_k, X projected on every other mode with the factors current at
	// that point. ttm.TreeInto shares the projections' partial
	// contractions on a dimension tree and hands each Y_k to update,
	// whose new factor the later projections read. The contractions
	// and GramInto time themselves (PhaseTTMChain / PhaseGram). The
	// last leaf's Y_{N-1} (X itself at order 1, where the root is the
	// leaf) stays in last for the core.
	var last *tensor.Dense
	update := func(k int, y *tensor.Dense) error {
		u, err := modeFactor(grams[k], y, k, opts.Ranks[k], w, ws)
		if err != nil {
			return fmt.Errorf("tucker: HOOI mode %d: %w", k, err)
		}
		factors[k] = u
		last = y
		return nil
	}

	// HOOI sweeps.
	var trace []TraceEntry
	prevFit := math.Inf(-1)
	fit := 0.0
	for it := 0; it < opts.MaxIters; it++ {
		if err := ttm.TreeInto(ys, x, factors, w, ws, update); err != nil {
			return nil, nil, err
		}
		// Y_{N-1} is X contracted on every mode but N-1 with the
		// final factors, so one TTM finishes the core:
		// G = Y_{N-1} x_{N-1} U_{N-1}^T. With orthonormal factors,
		// ||Xhat|| = ||G||, so the fit comes from the core alone.
		fspan := obs.Start(obs.PhaseFit)
		ttm.TTMInto(coreBuf, last, factors[N-1], N-1, w)
		fit = fitFromCore(normX, coreBuf.Data(), dims)
		fspan.Stop()
		trace = append(trace, TraceEntry{Iter: it, Fit: fit})
		if fit-prevFit < opts.Tol && it > 0 {
			break
		}
		prevFit = fit
	}
	// Every exit from the loop follows a fit phase, so coreBuf already
	// holds X x_k U_k^T for the final factors.
	return &Model{Core: coreBuf, Factors: factors, Fit: fit}, trace, nil
}

// HOSVD returns the sequentially truncated HOSVD model (ST-HOSVD)
// without HOOI refinement: the initialization Decompose runs, with the
// last contraction kept, so the final truncated tensor is the core.
func HOSVD(x *tensor.Dense, ranks []int) (*Model, error) {
	if err := checkRanks(x, ranks); err != nil {
		return nil, err
	}
	ws := ttm.GetWorkspace() // before the norm's section, as in Decompose
	defer ttm.PutWorkspace(ws)
	normX := linalg.Norm(x.Data(), 0)
	if normX == 0 { //repro:bitwise zero-tensor guard: norm is exactly 0 iff all entries are 0
		return nil, fmt.Errorf("tucker: zero tensor")
	}
	core := tensor.NewDense(ranks...)
	factors := make([]*tensor.Matrix, x.Order())
	if err := truncate(core, x, ranks, factors, gramViews(x.Dims()), 0, ws); err != nil {
		return nil, err
	}
	return &Model{Core: core, Factors: factors, Fit: fitFromCore(normX, core.Data(), x.Dims())}, nil
}

// checkRanks validates one multilinear rank per mode of x, each
// between 1 and the mode's extent: the one rank check of every Tucker
// solver, run before any work.
func checkRanks(x *tensor.Dense, ranks []int) error {
	if len(ranks) != x.Order() {
		return fmt.Errorf("tucker: %d ranks for order-%d tensor", len(ranks), x.Order())
	}
	for k, r := range ranks {
		if r < 1 || r > x.Dim(k) {
			return fmt.Errorf("tucker: rank %d invalid for mode %d (extent %d)", r, k, x.Dim(k))
		}
	}
	return nil
}

// truncate runs the ST-HOSVD pass (ttm.TruncateInto) on x into factors
// and, when core is non-nil, the core: mode k's factor is the leading
// eigenvectors of the mode-k Gram of x already truncated in the modes
// the pass visited before k.
func truncate(core, x *tensor.Dense, ranks []int, factors, grams []*tensor.Matrix, w int, ws *ttm.Workspace) error {
	return ttm.TruncateInto(core, x, ranks, factors, w, ws, func(k int, y *tensor.Dense) (*tensor.Matrix, error) {
		u, err := modeFactor(grams[k], y, k, ranks[k], w, ws)
		if err != nil {
			return nil, fmt.Errorf("tucker: HOSVD mode %d: %w", k, err)
		}
		return u, nil
	})
}

// modeFactor forms y's mode-k Gram in gram (timed as PhaseGram by
// GramInto) and returns its r leading eigenvectors (timed as
// PhaseSolve).
func modeFactor(gram *tensor.Matrix, y *tensor.Dense, k, r, w int, ws *ttm.Workspace) (*tensor.Matrix, error) {
	ttm.GramInto(gram, y, k, w, ws)
	sspan := obs.Start(obs.PhaseSolve)
	u, err := linalg.LeadingEigvecs(gram, r)
	sspan.Stop()
	return u, err
}

// gramViews returns the I_k x I_k mode-Gram views of one buffer sized
// for the largest mode. A mode's Gram is dead once its factor is
// computed — LeadingEigvecs clones its input — so every mode can
// overwrite the same storage.
func gramViews(dims []int) []*tensor.Matrix {
	size := 0
	for _, d := range dims {
		size = max(size, d*d)
	}
	buf := make([]float64, size)
	out := make([]*tensor.Matrix, len(dims))
	for k, d := range dims {
		out[k] = tensor.NewMatrixFromData(buf[:d*d], d, d)
	}
	return out
}

// projectionViews returns the HOOI mode-k projection views (extent
// I_k on mode k, ranks[j] on every other mode j) of one buffer sized
// for the largest: like the Grams, a projection is dead once its
// factor is computed.
func projectionViews(dims, ranks []int) []*tensor.Dense {
	shapes := make([][]int, len(dims))
	sizes := make([]int, len(dims))
	size := 0
	for k := range dims {
		shapes[k] = append([]int(nil), ranks...)
		shapes[k][k] = dims[k]
		sizes[k] = 1
		for _, d := range shapes[k] {
			sizes[k] *= d
		}
		size = max(size, sizes[k])
	}
	buf := make([]float64, size)
	out := make([]*tensor.Dense, len(dims))
	for k, sh := range shapes {
		out[k] = tensor.NewDenseFromData(buf[:sizes[k]], sh...)
	}
	return out
}

// fitFromCore returns the fit 1 - ||X - Xhat|| / ||X|| of a model
// with orthonormal factors from ||X|| and the core's entries (whole or
// all-reduced), using ||X - Xhat||^2 = ||X||^2 - ||G||^2. It is the one
// fit formula of every Tucker solver. The subtraction cancels as the
// fit nears 1: G comes out of a TTM chain whose mode-k step sums I_k
// products per entry, so ||G||^2 carries a rounding error of order
// (sum_k I_k)·eps·||X||^2, and a residual inside that floor has no
// significant digits. Such a residual, like a negative one, counts as
// exactly 0; otherwise the sqrt would turn a few ulps of noise into a
// fit visibly below 1 (3 eps of residual becomes 1 - 2.7e-8 on an
// exact full-rank model). dims are X's extents.
func fitFromCore(normX float64, core []float64, dims []int) float64 {
	const eps = 0x1p-52
	var core2 float64
	for _, v := range core {
		core2 += v * v
	}
	inner := 0
	for _, d := range dims {
		inner += d
	}
	normX2 := normX * normX
	resid2 := normX2 - core2
	if resid2 <= float64(inner)*eps*normX2 {
		return 1
	}
	return 1 - math.Sqrt(resid2)/normX
}
