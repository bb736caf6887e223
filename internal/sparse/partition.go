package sparse

import (
	"fmt"
	"math/rand"

	"repro/internal/grid"
)

// Partition assigns each nonzero to one of P parts (owner-computes).
type Partition struct {
	P      int
	Assign []int // Assign[e] in [0, P) for entry e
}

// BlockPartition sorts the entries by linear offset and cuts them into
// P contiguous, nearly equal chunks — the cheap structured baseline.
func BlockPartition(c *COO, P int) Partition {
	if P < 1 {
		panic(fmt.Sprintf("sparse: P = %d", P))
	}
	c.SortLinear()
	assign := make([]int, c.NNZ())
	for p := 0; p < P; p++ {
		lo, hi := grid.Part(c.NNZ(), P, p)
		for e := lo; e < hi; e++ {
			assign[e] = p
		}
	}
	return Partition{P: P, Assign: assign}
}

// RandomPartition assigns nonzeros to parts uniformly at random —
// perfectly load balanced in expectation, maximally oblivious to
// structure.
func RandomPartition(c *COO, P int, seed int64) Partition {
	if P < 1 {
		panic(fmt.Sprintf("sparse: P = %d", P))
	}
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, c.NNZ())
	for e := range assign {
		assign[e] = rng.Intn(P)
	}
	return Partition{P: P, Assign: assign}
}

// rowKey identifies a factor row (mode, index).
type rowKey struct{ mode, idx int }

// lambda computes, for every factor row of participating modes, the
// set of parts whose nonzeros touch it.
func lambda(c *COO, part Partition) map[rowKey]map[int]bool {
	out := make(map[rowKey]map[int]bool)
	for e, p := range part.Assign {
		for k, col := range c.coords {
			key := rowKey{k, int(col[e])}
			if out[key] == nil {
				out[key] = make(map[int]bool)
			}
			out[key][p] = true
		}
	}
	return out
}

// CommVolume returns the total communication volume (in words, for
// rank R factors) of an expand/fold parallelization of mode-n MTTKRP
// under the given nonzero partition, assuming each factor/output row
// is owned by one part:
//
//   - expand: every input row (mode k != n) touched by lambda parts
//     must reach lambda-1 non-owners: (lambda-1)*R words;
//   - fold: every output row (mode n) with contributions from lambda
//     parts needs lambda-1 partial results sent to its owner:
//     (lambda-1)*R words.
//
// This is exactly the (lambda-1) connectivity metric of the hypergraph
// partitioning formulation the paper cites.
func CommVolume(c *COO, part Partition, n, R int) int64 {
	if len(part.Assign) != c.NNZ() {
		panic(fmt.Sprintf("sparse: partition covers %d of %d entries", len(part.Assign), c.NNZ()))
	}
	var vol int64
	for _, parts := range lambda(c, part) {
		vol += int64(len(parts)-1) * int64(R) //repro:ignore determinism integer accumulation is exact in any order
	}
	return vol
}

// MaxPartLoad returns the largest number of nonzeros assigned to one
// part (computation balance).
func MaxPartLoad(part Partition) int {
	counts := make([]int, part.P)
	m := 0
	for _, p := range part.Assign {
		counts[p]++
		if counts[p] > m {
			m = counts[p]
		}
	}
	return m
}
