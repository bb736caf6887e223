package dimtree

import "repro/internal/costmodel"

// This file prices the walk under a streaming two-level-memory model:
// every contraction reads its source once from slow memory, reads the
// dropped factor matrices once, and writes its result once. The
// dimension tree reads the full tensor only twice (the two root
// contractions) where N independent MTTKRPs read it N times; all other
// tree traffic touches the much smaller partials.

// AllModesCost returns the words and flops the planner charges for
// one Sweep over a tensor of extents dims at rank R. A contraction
// keeping [klo, khi) of the node [lo, hi) views its source as
// L x M x Rt (the extents' products below, in and above the kept
// range) and moves the source once, its M x R output once and each
// dropped side's KRP panel twice (written, then read); its flops are
// Sweep's count, one per panel element and 2·L·M·Rt·R.
func AllModesCost(dims []int, R int) costmodel.EngineCost {
	var c costmodel.EngineCost
	r := float64(R)
	prod := func(lo, hi int) float64 {
		p := 1.0
		for _, d := range dims[lo:hi] {
			p *= float64(d)
		}
		return p
	}
	_ = walk(0, 0, len(dims), func(depth, lo, hi, klo, khi int) error {
		L, M, Rt := prod(lo, klo), prod(klo, khi), prod(khi, hi)
		if klo > lo {
			c.Words += 2 * L * r
			c.Flops += L * r
		}
		if khi < hi {
			c.Words += 2 * Rt * r
			c.Flops += Rt * r
		}
		src := L * M * Rt
		if depth > 0 {
			src *= r
		}
		c.Words += src + M*r
		c.Flops += 2 * L * M * Rt * r
		return nil
	})
	return c
}

// CommEstimate returns the streaming-model words moved (loads+stores)
// by the balanced dimension tree and by N independent single-mode
// passes, for a tensor of the given dimensions and rank R.
func CommEstimate(dims []int, R int) (tree, independent int64) {
	N := len(dims)
	I := int64(1)
	for _, d := range dims {
		I *= int64(d)
	}
	// Independent: per mode, read X once, read the N-1 factors, write
	// the output.
	for n := 0; n < N; n++ {
		independent += I
		for k, d := range dims {
			if k != n {
				independent += int64(d) * int64(R)
			}
		}
		independent += int64(dims[n]) * int64(R)
	}
	_ = walk(0, 0, N, func(depth, lo, hi, klo, khi int) error {
		src, factors, dst := streamWords(dims, R, depth, lo, hi, klo, khi)
		tree += src + factors + dst
		return nil
	})
	return tree, independent
}

// streamWords returns the words one contraction of the walk moves in
// the streaming model, over a tensor of extents dims at rank R: the
// source it reads (the tensor at depth 0, the node [lo, hi)'s partial
// below), the dropped factors it reads and the child [klo, khi) it
// writes.
func streamWords(dims []int, R, depth, lo, hi, klo, khi int) (src, factors, dst int64) {
	src, dst = 1, int64(R)
	for k := lo; k < hi; k++ {
		src *= int64(dims[k])
		if k < klo || k >= khi {
			factors += int64(dims[k]) * int64(R)
		} else {
			dst *= int64(dims[k])
		}
	}
	if depth > 0 {
		src *= int64(R)
	}
	return src, factors, dst
}
