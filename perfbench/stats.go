package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeReps calls fn until budget has elapsed and at least minReps calls
// have run, and returns the median seconds per call.
func timeReps(budget time.Duration, minReps int, fn func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// allocsPerCall returns the heap allocations per call of fn over reps
// calls.
func allocsPerCall(reps int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// digest hashes the exact bit patterns of every value, so two results
// have the same digest only if they are bitwise equal (up to hash
// collisions).
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(xs []float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(x))
		_, _ = d.h.Write(d.buf[:]) // hash writes never fail
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func (d *digest) matrices(ms []*tensor.Matrix) {
	for _, m := range ms {
		d.floats(m.Data())
	}
}

// relErr is max|a-b| / max|b| over two equally shaped matrices.
func relErr(a, b *tensor.Matrix) float64 {
	scale := 0.0
	for _, v := range b.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 { //repro:bitwise exact-zero guard before division
		scale = 1
	}
	return a.MaxAbsDiff(b) / scale
}
