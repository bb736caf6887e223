// Package par implements the paper's distributed-memory MTTKRP
// algorithms on the simulated machine:
//
//   - Algorithm 3, the stationary-tensor algorithm (Section V-C): the
//     tensor never moves; factor block rows are All-Gathered within
//     processor-grid hyperslices, a local MTTKRP runs, and the output
//     is formed by a Reduce-Scatter.
//   - Algorithm 4, the general algorithm (Section V-D): an (N+1)-way
//     grid also splits the rank dimension into P0 parts; the tensor
//     block is additionally All-Gathered across P0-fibers. P0 = 1
//     recovers Algorithm 3.
//   - A 1D-parallel MTTKRP-via-matrix-multiplication baseline
//     (Section VI-B's comparator).
//
// Every rank is a goroutine exchanging real data through
// simnet/comm, so each run verifies correctness and measures the words
// each processor sends and receives.
package par

import (
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Result carries a parallel run's reassembled output and its
// communication statistics.
type Result struct {
	B              *tensor.Matrix // reassembled In x R output (driver-side check)
	simnet.Traffic                // per-rank traffic

	// Grid is the processor-grid shape the run used (N entries for
	// Algorithm 3, N+1 with the rank split first for Algorithm 4,
	// [P] for the 1D baseline), so callers can evaluate the matching
	// closed forms (Eq. (14)/(18)) without re-deriving the grid.
	Grid []int

	// Phase breakdown, per rank: words (sent+received) during input
	// gathers and during the output reduce-scatter.
	GatherWords []int64
	ReduceWords []int64

	// ResidentWords is each rank's peak storage (local tensor data,
	// gathered factor blocks, and the local contribution matrix) — the
	// measured counterpart of the paper's per-processor memory bounds,
	// Eq. (16) for Algorithm 3 and Eq. (20) for Algorithm 4.
	ResidentWords []int64
}

// MaxResident returns the largest per-rank storage.
func (r *Result) MaxResident() int64 {
	var m int64
	for _, v := range r.ResidentWords {
		if v > m {
			m = v
		}
	}
	return m
}
