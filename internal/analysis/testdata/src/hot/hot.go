// Package hot exercises the hotpath-alloc analyzer: every class of
// forbidden allocation, transitive propagation into callees, the
// panic-argument exemption, line- and function-level suppressions, and
// edge cutting.
package hot

import (
	"errors"
	"fmt"
)

type point struct{ x, y float64 }

//repro:hotpath
func Hot(dst []float64, n int) []float64 {
	buf := make([]float64, n)
	dst = append(dst, 1)
	p := new(point)
	_ = p
	m := map[int]int{1: 2}
	_ = m
	sl := []int{1, 2}
	_ = sl
	pt := &point{1, 2}
	_ = pt
	val := point{3, 4} // value composite literal: allowed
	_ = val
	s := fmt.Sprintf("%d", n)
	_ = s
	f := func() { dst[0] = buf[0] }
	f()
	helper(dst)
	audited(n)
	cold(n) //repro:ignore hotpath-alloc edge audited: cold is off the steady-state path
	if n < 0 {
		panic(fmt.Sprintf("hot: bad n %d", n)) // failure path: exempt
	}
	//repro:ignore hotpath-alloc grow-only warm-up allocation
	suppressed := make([]float64, n)
	return suppressed
}

// helper is reached transitively from Hot, so its body is hot too.
func helper(x []float64) {
	_ = append(x, 2)
}

// ColdErrBlock allocates only inside error-handling blocks, which are
// off the steady-state path: allowed. The else-arm of an err == nil
// test is cold for the same reason.
//
//repro:hotpath
func ColdErrBlock(xs []float64) (float64, error) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	err := validate(s)
	if err != nil {
		return 0, fmt.Errorf("cold: bad sum %f: %w", s, err)
	}
	if err == nil {
		s *= 2
	} else {
		msg := make([]byte, 64)
		_ = msg
	}
	return s, nil
}

// WarmAlloc still allocates on the success path next to an error
// check: the make outside the cold block stays flagged.
//
//repro:hotpath
func WarmAlloc(xs []float64) ([]float64, error) {
	if err := validate(float64(len(xs))); err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	copy(out, xs)
	return out, nil
}

var errNegative = errors.New("negative sum")

// validate is hot-reachable, so it must not allocate outside cold
// blocks; the sentinel error is built at package init.
func validate(s float64) error {
	if s < 0 {
		return errNegative
	}
	return nil
}

// audited is reached from Hot but its function-level suppression marks
// it reviewed: no diagnostics, no further propagation.
//
//repro:ignore hotpath-alloc audited: bookkeeping only
func audited(n int) {
	_ = make([]int, n)
}

// cold allocates, but the only call edge into it is suppressed.
func cold(n int) []int {
	return make([]int, n)
}

// NotHot is never reached from a //repro:hotpath root.
func NotHot() []int {
	return make([]int, 1)
}

// box is a generic type. A hot call to one of its methods resolves to
// the generic declaration, so the walk checks the method's body.
type box[T any] struct{ items []T }

func (b *box[T]) grow(n int) { b.items = make([]T, n) }

// HotGeneric reaches box.grow through an instantiated receiver.
//
//repro:hotpath
func HotGeneric(b *box[float64]) { b.grow(4) }
