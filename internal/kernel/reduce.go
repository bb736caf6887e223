package kernel

import (
	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// reduceSmall is the add count ((len(bufs)-1) * len(bufs[0]) words)
// below which ReduceTree runs inline.
const reduceSmall = 1 << 14

// ReduceTree sums bufs[1:] into bufs[0] with pairwise (binary-tree)
// combining: round s adds bufs[i+s] into bufs[i] for i = 0, 2s, 4s,
// ..., halving the live set each round. The association order depends
// only on len(bufs), never on the worker count, so a reduction over
// the same private buffers is bitwise reproducible at any parallelism.
//
// Every element's rounds are independent of every other element's, so
// the vectors split into `workers` contiguous segments, one fanout
// chunk each, and a chunk runs every round on its segment. workers <= 0
// selects the linalg package default. All buffers must have the same
// length.
//
//repro:hotpath
func ReduceTree(bufs [][]float64, workers int) {
	m := len(bufs)
	if m <= 1 {
		return
	}
	workers = linalg.ResolveWorkers(workers)
	n := len(bufs[0])
	// m-1 pairwise adds of n words each: read both operands, write one.
	obs.Axpy(m-1, n)
	if workers <= 1 || (m-1)*n < reduceSmall {
		reduceSegment(bufs, 0, n)
		return
	}
	t := reduceTasks.Get()
	t.bufs, t.parts = bufs, min(workers, n) //repro:ignore workspace-aliasing held for this call only: t drops bufs before it goes back on the free list
	fanout.Run(t, t.parts, t.parts)
	t.bufs = nil
	reduceTasks.Put(t)
}

// reduceTask is a parallel ReduceTree: chunk c is segment c of parts.
type reduceTask struct {
	bufs  [][]float64
	parts int
}

// reduceTasks holds the descriptors of the reductions in flight:
// ReduceTree has no workspace to keep one in.
var reduceTasks fanout.Free[reduceTask]

// Chunk reduces segment c.
//
//repro:hotpath
func (t *reduceTask) Chunk(c, _ int) {
	n := len(t.bufs[0])
	reduceSegment(t.bufs, c*n/t.parts, (c+1)*n/t.parts)
}

// reduceSegment runs every round of the tree on words [lo, hi).
func reduceSegment(bufs [][]float64, lo, hi int) {
	m := len(bufs)
	for stride := 1; stride < m; stride *= 2 {
		for i := 0; i+stride < m; i += 2 * stride {
			addInto(bufs[i][lo:hi], bufs[i+stride][lo:hi])
		}
	}
}

func addInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
