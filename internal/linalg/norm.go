package linalg

import (
	"math"

	"repro/internal/fanout"
	"repro/internal/simd"
)

// normChunk is SumSquares' fixed chunk length in words (128 KiB): one
// simd.Dot call long enough to stream at full speed, short enough
// that a solver's tensor splits into many chunks.
const normChunk = 1 << 14

// Norm returns the Euclidean norm sqrt(sum_i x[i]^2) of x — a tensor's
// Frobenius norm when x is its data: the square root of
// SumSquares(x, workers). tensor.Dense.Norm, one scalar loop, is the
// oracle.
func Norm(x []float64, workers int) float64 { return math.Sqrt(SumSquares(x, workers)) }

// SumSquares returns sum_i x[i]^2. The squares sum in fixed chunks of
// normChunk words, one simd.Dot(x_c, x_c) partial each, and the
// partials add in chunk order. The chunks depend on len(x) alone, so
// the result is bitwise independent of workers. Past one chunk they
// run as one fanout section on up to workers slots (<= 0 selects the
// package default). NaN and ±Inf propagate.
func SumSquares(x []float64, workers int) float64 {
	n := (len(x) + normChunk - 1) / normChunk
	if n <= 1 {
		return simd.Dot(x, x)
	}
	t := normTasks.Get()
	if cap(t.parts) < n {
		t.parts = make([]float64, n)
	}
	t.x, t.parts = x, t.parts[:n]
	fanout.Run(t, n, ResolveWorkers(workers))
	s := 0.0
	for _, p := range t.parts {
		s += p
	}
	t.x = nil
	normTasks.Put(t)
	return s
}

// normTask is SumSquares as a fanout task: chunk c writes partial c only.
type normTask struct {
	x, parts []float64
}

// normTasks holds the descriptors of the sums in flight; each keeps
// its partials, grown to the largest chunk count it has served.
var normTasks fanout.Free[normTask]

// Chunk sums the squares of chunk c into partial c.
//
//repro:hotpath
func (t *normTask) Chunk(c, _ int) {
	lo := c * normChunk
	xc := t.x[lo:min(lo+normChunk, len(t.x))]
	t.parts[c] = simd.Dot(xc, xc)
}
