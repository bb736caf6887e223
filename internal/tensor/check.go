package tensor

import (
	"fmt"
	"math"
)

// AllModes, passed as CheckFactors' mode, asks for every factor: the
// all-modes MTTKRP (a dimension tree or a CSF walk) reads them all.
// It is far from any mode a caller computes, so a stray -1 stays a
// mode out of range.
const AllModes = math.MinInt

// Shape is what an MTTKRP argument check reads of a tensor: its order
// and extents. Dense and Dense32 satisfy it, and so do the sparse COO
// and CSF tensors.
type Shape interface {
	Order() int
	Dim(k int) int
}

// FactorMatrix is a factor matrix in either storage precision.
type FactorMatrix interface {
	*Matrix | *Matrix32
	Rows() int
	Cols() int
}

// CheckFactors is the one check of an MTTKRP's arguments: a tensor of
// order at least 2, one factor per mode, an output mode n in [0, N) or
// AllModes, and every participating factor (all but factors[n], which
// may be nil) non-nil, with I_k rows and one common column count,
// which it returns as the rank R. Constructors already forbid empty
// extents and matrices. It allocates nothing on valid arguments.
//
//repro:ignore hotpath-alloc errors are built only for invalid arguments
func CheckFactors[M FactorMatrix](x Shape, factors []M, n int) (R int, err error) {
	N := x.Order()
	if N < 2 {
		return 0, fmt.Errorf("tensor: MTTKRP needs order >= 2, got order %d", N)
	}
	if len(factors) != N {
		return 0, fmt.Errorf("tensor: %d factors for an order-%d tensor", len(factors), N)
	}
	if n != AllModes && (n < 0 || n >= N) {
		return 0, fmt.Errorf("tensor: mode %d out of range [0,%d)", n, N)
	}
	for k, f := range factors {
		switch {
		case k == n:
		case f == nil:
			return 0, fmt.Errorf("tensor: factor %d is nil", k)
		case f.Rows() != x.Dim(k):
			return 0, fmt.Errorf("tensor: factor %d has %d rows, mode %d has extent %d", k, f.Rows(), k, x.Dim(k))
		case R == 0:
			R = f.Cols()
		case f.Cols() != R:
			return 0, fmt.Errorf("tensor: factor %d has %d columns, the factors before it %d", k, f.Cols(), R)
		}
	}
	return R, nil
}
