// Package repro is a Go reproduction of "Communication Lower Bounds
// for Matricized Tensor Times Khatri-Rao Product" (Ballard, Knight,
// Rouse; IPDPS 2018). It provides:
//
//   - dense N-way tensors and factor matrices;
//   - the MTTKRP kernel and the paper's communication-optimal
//     sequential (Algorithm 2) and parallel (Algorithms 3-4)
//     algorithms, instrumented on simulated machines that count every
//     word moved;
//   - the MTTKRP-via-matrix-multiplication baselines the paper argues
//     against;
//   - evaluators for every lower bound of Section IV;
//   - the cost models behind Figure 4; and
//   - CP-ALS, the application whose bottleneck MTTKRP is.
//
// This package is a facade over the internal implementation packages;
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package repro

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/cpals"
	"repro/internal/dimtree"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/pebble"
	"repro/internal/seq"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
	"repro/internal/tucker"
)

// Dense is a dense N-way tensor in generalized column-major layout.
type Dense = tensor.Dense

// Matrix is a dense column-major matrix (factor matrices are I_k x R).
type Matrix = tensor.Matrix

// NewDense allocates a zero tensor with the given dimensions.
func NewDense(dims ...int) *Dense { return tensor.NewDense(dims...) }

// NewMatrix allocates a zero rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// RandomDense returns a deterministic random tensor with entries in
// [-1, 1).
func RandomDense(seed int64, dims ...int) *Dense { return tensor.RandomDense(seed, dims...) }

// RandomFactors returns deterministic random factor matrices of shapes
// dims[k] x R.
func RandomFactors(seed int64, dims []int, R int) []*Matrix {
	return tensor.RandomFactors(seed, dims, R)
}

// FromFactors materializes the rank-R tensor defined by the factors.
func FromFactors(factors []*Matrix) *Dense { return tensor.FromFactors(factors) }

// MTTKRP computes B(n) with the KRP-splitting shared-memory engine
// (kernel.Fast) and no cost accounting. It agrees with Definition 2.1
// up to floating-point reassociation. factors[n] is ignored and may be
// nil. Arguments that tensor.CheckFactors rejects (an order below 2, a
// factor count other than N, a mode out of range, a nil factor, wrong
// rows or mixed ranks) return its error.
func MTTKRP(x *Dense, factors []*Matrix, n int) (*Matrix, error) {
	return MTTKRPParallel(x, factors, n, 0)
}

// MTTKRPParallel is MTTKRP on workers goroutines (<= 0 selects the
// engine default, normally GOMAXPROCS). The result is bitwise
// identical for every worker count.
func MTTKRPParallel(x *Dense, factors []*Matrix, n, workers int) (*Matrix, error) {
	if _, err := tensor.CheckFactors(x, factors, n); err != nil {
		return nil, err
	}
	return kernel.FastWorkers(x, factors, n, workers), nil
}

// CPDecomposeTree runs CP-ALS with Phan-style prefix-partial reuse:
// identical sweeps to CPDecompose at a fraction of the arithmetic. The
// third return value is the total MTTKRP flops performed.
func CPDecomposeTree(x *Dense, opts CPOptions) (*CPModel, []CPTraceEntry, int64, error) {
	return cpals.DecomposeTree(x, opts)
}

// Sequential algorithm selection (Algorithms 1-2 and the baseline).
type (
	// SeqAlgorithm selects an instrumented sequential algorithm.
	SeqAlgorithm = core.SeqAlgorithm
	// SeqOptions configures SequentialMTTKRP.
	SeqOptions = core.SeqOptions
	// SeqResult is the output plus exact load/store counts.
	SeqResult = seq.Result
)

// Sequential algorithm identifiers.
const (
	SeqAuto      = core.SeqAuto
	SeqUnblocked = core.SeqUnblocked
	SeqBlocked   = core.SeqBlocked
	SeqViaMatmul = core.SeqViaMatmul
)

// SequentialMTTKRP runs an instrumented sequential MTTKRP on the
// two-level memory model with fast memory capacity opts.M.
func SequentialMTTKRP(x *Dense, factors []*Matrix, n int, opts SeqOptions) (*SeqResult, error) {
	return core.Sequential(x, factors, n, opts)
}

// Parallel algorithm selection (Algorithms 3-4 and the baseline).
type (
	// ParAlgorithm selects a parallel algorithm.
	ParAlgorithm = core.ParAlgorithm
	// ParOptions configures ParallelMTTKRP.
	ParOptions = core.ParOptions
	// ParResult is the reassembled output plus per-rank traffic.
	ParResult = par.Result
)

// Parallel algorithm identifiers.
const (
	ParAuto       = core.ParAuto
	ParStationary = core.ParStationary
	ParGeneral    = core.ParGeneral
	ParViaMatmul  = core.ParViaMatmul
)

// ParallelMTTKRP runs a parallel MTTKRP on the simulated
// distributed-memory machine, choosing a cost-minimizing processor
// grid unless one is given.
func ParallelMTTKRP(x *Dense, factors []*Matrix, n int, opts ParOptions) (*ParResult, error) {
	return core.Parallel(x, factors, n, opts)
}

// Problem describes an MTTKRP instance for bound evaluation.
type Problem = bounds.Problem

// Bounds collects the paper's lower bounds for one parameter set.
type Bounds = core.Bounds

// LowerBounds evaluates every Section IV bound with gamma = delta = 1.
func LowerBounds(dims []int, R int, M float64, P float64) Bounds {
	return core.AllBounds(dims, R, M, P)
}

// CP-ALS (the application).
type (
	// CPOptions configures a CP-ALS run.
	CPOptions = cpals.Options
	// CPModel is a computed CP decomposition.
	CPModel = cpals.Model
	// CPTraceEntry records one ALS sweep's fit.
	CPTraceEntry = cpals.TraceEntry
	// CPParallelResult is a distributed CP-ALS run with its
	// communication breakdown.
	CPParallelResult = cpals.ParallelResult
)

// CPDecompose runs sequential CP-ALS.
func CPDecompose(x *Dense, opts CPOptions) (*CPModel, []CPTraceEntry, error) {
	return cpals.Decompose(x, opts)
}

// CPDecomposeParallel runs distributed CP-ALS on an N-way processor
// grid with the Algorithm 3 layout: the tensor stays put, each rank
// keeps its hyperslices' gathered factor block rows across modes and
// sweeps and regathers a factor only after its update, each Gram is
// all-reduced over the grid fiber whose block rows partition the
// factor, and every rank computes its MTTKRPs on a dimension tree over
// its block. Every dimension must be at least the processor count;
// order-1 and zero tensors return errors, as in CPDecompose.
func CPDecomposeParallel(x *Dense, shape []int, opts CPOptions) (*CPParallelResult, error) {
	return cpals.DecomposeParallel(x, shape, opts)
}

// MultiModeResult carries the all-modes MTTKRP outputs and the shared
// arithmetic cost of the dimension tree.
type MultiModeResult = dimtree.Result

// MTTKRPAllModes computes B(n) for every mode with one dimension-tree
// pass, sharing partial contractions across modes (the multi-MTTKRP
// optimization of the paper's Section VII). All factors must be
// non-nil; arguments that tensor.CheckFactors rejects return its error.
func MTTKRPAllModes(x *Dense, factors []*Matrix) (*MultiModeResult, error) {
	if _, err := tensor.CheckFactors(x, factors, tensor.AllModes); err != nil {
		return nil, err
	}
	return dimtree.AllModes(x, factors), nil
}

// CPGradOptions configures gradient-based CP fitting.
type CPGradOptions = cpals.GradOptions

// CPGradTraceEntry records one gradient-descent iteration.
type CPGradTraceEntry = cpals.GradTraceEntry

// CPDecomposeGradient fits a CP model by gradient descent with
// backtracking line search; every objective/gradient evaluation uses
// one shared dimension-tree MTTKRP pass.
func CPDecomposeGradient(x *Dense, opts CPGradOptions) (*CPModel, []CPGradTraceEntry, error) {
	return cpals.DecomposeGradient(x, opts)
}

// CPGradient returns the per-mode gradients of 0.5*||X - Xhat||^2, the
// objective value, and the shared-MTTKRP flop count.
func CPGradient(x *Dense, factors []*Matrix) ([]*Matrix, float64, int64) {
	return cpals.Gradient(x, factors)
}

// TTM returns the mode-k tensor-times-matrix product Y = X x_k U^T
// (mode k's extent becomes U's column count) — the Tucker kernel the
// paper's conclusion extends toward.
func TTM(x *Dense, u *Matrix, mode int) *Dense { return ttm.TTM(x, u, mode) }

// Tucker types re-exported for the Tucker/HOOI application.
type (
	// TuckerOptions configures TuckerDecompose.
	TuckerOptions = tucker.Options
	// TuckerModel is a core plus orthonormal factors.
	TuckerModel = tucker.Model
	// TuckerTraceEntry records one HOOI sweep.
	TuckerTraceEntry = tucker.TraceEntry
)

// TuckerDecompose runs HOOI for the given multilinear ranks, started
// from the sequentially truncated HOSVD (ST-HOSVD). A sweep reads the
// tensor twice at uniform ranks, and the initialization once.
func TuckerDecompose(x *Dense, opts TuckerOptions) (*TuckerModel, []TuckerTraceEntry, error) {
	return tucker.Decompose(x, opts)
}

// TuckerParallelResult is a distributed HOOI run with each rank's
// all-reduce traffic (the projections and the norm).
type TuckerParallelResult = tucker.ParallelResult

// TuckerDecomposeParallel runs distributed HOOI on an N-way processor
// grid of the simulated machine, with the stationary-tensor layout,
// started from opts.Init or, when it is nil, from seeded orthonormal
// factors.
func TuckerDecomposeParallel(x *Dense, shape []int, opts TuckerOptions, seed int64) (*TuckerParallelResult, error) {
	return tucker.DecomposeParallel(x, shape, opts, seed)
}

// OptimalScheduleWords computes, by exhaustive state search, the exact
// minimum loads+stores over all executions of a tiny MTTKRP on a
// machine with M words of fast memory — the strongest validation of
// Theorem 4.1 (see internal/pebble). Instances must be tiny; the
// search errors out beyond its state budget.
func OptimalScheduleWords(dims []int, R, mode, M int, maxStates int) (int64, error) {
	return pebble.Optimal(pebble.Instance{Dims: dims, R: R, N: mode, M: M}, maxStates)
}

// Sparse-tensor types re-exported for the sparse MTTKRP extension.
type (
	// SparseCOO is a sparse tensor in coordinate format.
	SparseCOO = sparse.COO
	// SparsePartition assigns nonzeros to owner-computes parts.
	SparsePartition = sparse.Partition
)

// RandomSparse generates a sparse tensor with nnz distinct nonzeros.
func RandomSparse(seed int64, nnz int, dims ...int) *SparseCOO {
	return sparse.Random(seed, nnz, dims...)
}

// SparseMTTKRP computes the mode-n MTTKRP of a sparse tensor.
// Arguments that tensor.CheckFactors rejects return its error.
func SparseMTTKRP(x *SparseCOO, factors []*Matrix, n int) (*Matrix, error) {
	if _, err := tensor.CheckFactors(x, factors, n); err != nil {
		return nil, err
	}
	return sparse.MTTKRP(x, factors, n), nil
}

// SparseCommVolume returns the hypergraph (lambda-1) communication
// volume of a nonzero partition — the quantity the paper's sparse
// future-work direction minimizes.
func SparseCommVolume(x *SparseCOO, part SparsePartition, n, R int) int64 {
	return sparse.CommVolume(x, part, n, R)
}

// Fig4Row is one point of the regenerated Figure 4.
type Fig4Row = costmodel.Fig4Row

// Fig4 regenerates the paper's Figure 4 series for P = 2^0..2^maxExp.
func Fig4(maxExp int) []Fig4Row { return costmodel.Fig4Series(maxExp) }
