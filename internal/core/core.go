// Package core is the high-level MTTKRP API tying the paper's pieces
// together: the instrumented sequential algorithms (Algorithms 1-2 and
// the via-matmul baseline) on the two-level memory model, the parallel
// algorithms (Algorithms 3-4 and the 1D matmul baseline) on the
// simulated distributed machine, and automatic algorithm/grid
// selection by the exact Eq. (14)/(18) cost search.
package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// SeqAlgorithm selects an instrumented sequential algorithm.
type SeqAlgorithm int

const (
	// SeqAuto picks Blocked with the Theorem 6.1 block size.
	SeqAuto SeqAlgorithm = iota
	// SeqUnblocked is Algorithm 1.
	SeqUnblocked
	// SeqBlocked is Algorithm 2 (communication optimal).
	SeqBlocked
	// SeqViaMatmul is the matricize + explicit-KRP + GEMM baseline.
	SeqViaMatmul
)

func (a SeqAlgorithm) String() string {
	switch a {
	case SeqAuto:
		return "auto"
	case SeqUnblocked:
		return "unblocked"
	case SeqBlocked:
		return "blocked"
	case SeqViaMatmul:
		return "via-matmul"
	}
	return fmt.Sprintf("SeqAlgorithm(%d)", int(a))
}

// SeqOptions configures Sequential.
type SeqOptions struct {
	Algorithm SeqAlgorithm
	M         int64 // fast memory capacity in words
	BlockSize int   // Algorithm 2 block size; 0 = choose via Alpha
	Alpha     float64
}

// Sequential runs an instrumented sequential MTTKRP on a fresh
// two-level memory machine of capacity opts.M and returns the result
// together with its exact load/store counts.
func Sequential(x *tensor.Dense, factors []*tensor.Matrix, n int, opts SeqOptions) (*seq.Result, error) {
	if opts.M <= 0 {
		return nil, fmt.Errorf("core: fast memory capacity M must be positive, got %d", opts.M)
	}
	mach := memsim.New(opts.M)
	switch opts.Algorithm {
	case SeqUnblocked:
		return seq.Unblocked(x, factors, n, mach)
	case SeqViaMatmul:
		return seq.ViaMatmul(x, factors, n, mach)
	case SeqAuto, SeqBlocked:
		b := opts.BlockSize
		if b == 0 {
			alpha := opts.Alpha
			if alpha == 0 { //repro:bitwise unset-option sentinel, exact
				alpha = 0.9
			}
			var err error
			b, err = seq.ChooseBlock(opts.M, x.Order(), alpha)
			if err != nil {
				return nil, err
			}
		}
		return seq.Blocked(x, factors, n, b, mach)
	default:
		return nil, fmt.Errorf("core: unknown sequential algorithm %v", opts.Algorithm)
	}
}

// ParAlgorithm selects a parallel algorithm.
type ParAlgorithm int

const (
	// ParAuto runs on the given grid, as Algorithm 3 on N extents and
	// Algorithm 4 on N+1, or else on the (N+1)-way grid minimizing the
	// exact Eq. (18) cost: Algorithm 3 when its rank split P0 is 1,
	// Algorithm 4 otherwise.
	ParAuto ParAlgorithm = iota
	// ParStationary is Algorithm 3.
	ParStationary
	// ParGeneral is Algorithm 4.
	ParGeneral
	// ParViaMatmul is the 1D matmul baseline of Section VI-B.
	ParViaMatmul
)

func (a ParAlgorithm) String() string {
	switch a {
	case ParAuto:
		return "auto"
	case ParStationary:
		return "stationary"
	case ParGeneral:
		return "general"
	case ParViaMatmul:
		return "via-matmul-1d"
	}
	return fmt.Sprintf("ParAlgorithm(%d)", int(a))
}

// ParOptions configures Parallel.
type ParOptions struct {
	Algorithm ParAlgorithm
	P         int   // processor count (used when Grid is nil)
	Grid      []int // explicit grid shape; overrides P
}

// Parallel runs a parallel MTTKRP on the simulated distributed-memory
// machine and returns the reassembled result plus per-processor
// communication statistics. When no explicit grid is given, the grid
// minimizing the exact Eq. (14)/(18) cost is chosen.
func Parallel(x *tensor.Dense, factors []*tensor.Matrix, n int, opts ParOptions) (*par.Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N, shape := x.Order(), opts.Grid
	switch opts.Algorithm {
	case ParAuto:
		if shape == nil {
			if shape, err = costmodel.BestGeneralExact(x.Dims(), R, opts.P); err != nil {
				return nil, err
			}
			if shape[0] == 1 {
				shape = shape[1:] // P0 = 1: Algorithm 4 is Algorithm 3
			}
		}
		if len(shape) == N {
			return par.Stationary(x, factors, n, shape)
		}
		return par.General(x, factors, n, shape)
	case ParStationary:
		if shape == nil {
			if shape, err = costmodel.BestStationaryExact(x.Dims(), R, opts.P); err != nil {
				return nil, err
			}
		}
		return par.Stationary(x, factors, n, shape)
	case ParGeneral:
		if shape == nil {
			if shape, err = costmodel.BestGeneralExact(x.Dims(), R, opts.P); err != nil {
				return nil, err
			}
		}
		return par.General(x, factors, n, shape)
	case ParViaMatmul:
		P := opts.P
		if shape != nil {
			P = 1
			for _, s := range shape {
				if s < 1 {
					return nil, fmt.Errorf("core: grid shape %v: extent %d below 1", shape, s)
				}
				P *= s
			}
		}
		return par.ViaMatmul1D(x, factors, n, P)
	default:
		return nil, fmt.Errorf("core: unknown parallel algorithm %v", opts.Algorithm)
	}
}

// Bounds reports every lower bound of Section IV for the given
// problem/machine parameters, for display alongside measured counts.
type Bounds struct {
	SeqMemDependent float64 // Theorem 4.1
	SeqTrivial      float64 // Fact 4.1
	ParMemDependent float64 // Corollary 4.1
	ParIndependent1 float64 // Theorem 4.2
	ParIndependent2 float64 // Theorem 4.3
}

// AllBounds evaluates the full bound set with gamma = delta = 1
// (exactly balanced distributions, which is what this library's
// layouts provide).
func AllBounds(dims []int, R int, M float64, P float64) Bounds {
	prob := bounds.Problem{Dims: dims, R: R}
	return Bounds{
		SeqMemDependent: bounds.SeqMemDependent(prob, M),
		SeqTrivial:      bounds.SeqTrivial(prob, M),
		ParMemDependent: bounds.ParMemDependent(prob, M, P),
		ParIndependent1: bounds.ParMemIndependent1(prob, P, 1, 1),
		ParIndependent2: bounds.ParMemIndependent2(prob, P, 1, 1),
	}
}
