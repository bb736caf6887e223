package kernel

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// ReduceTree sums bufs[1:] into bufs[0] with pairwise (binary-tree)
// combining: round s adds bufs[i+s] into bufs[i] for i = 0, 2s, 4s,
// ..., halving the live set each round. The association order depends
// only on len(bufs), never on the worker count, so a reduction over
// the same private buffers is bitwise reproducible at any parallelism.
//
// Within a round the adds are independent; they are split across
// `workers` goroutines by pair and, when pairs are scarcer than
// workers, by contiguous vector segment. workers <= 0 selects the
// linalg package default. All buffers must have the same length.
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
	for stride := 1; stride < m; stride *= 2 {
		step := 2 * stride
		npairs := 0
		for i := 0; i+stride < m; i += step {
			npairs++
		}
		if workers <= 1 || npairs*n < 1<<14 {
			for i := 0; i+stride < m; i += step {
				addInto(bufs[i], bufs[i+stride])
			}
			continue
		}
		segs := (workers + npairs - 1) / npairs
		seglen := (n + segs - 1) / segs
		var wg sync.WaitGroup
		for i := 0; i+stride < m; i += step {
			dst, src := bufs[i], bufs[i+stride]
			for lo := 0; lo < n; lo += seglen {
				hi := min(lo+seglen, n)
				wg.Add(1)
				//repro:ignore hotpath-alloc goroutine fan-out: the parallel path allocates bookkeeping only
				go func(dst, src []float64) {
					defer wg.Done()
					addInto(dst, src)
				}(dst[lo:hi], src[lo:hi])
			}
		}
		wg.Wait()
	}
}

func addInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
