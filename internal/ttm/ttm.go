// Package ttm implements the tensor-times-matrix product, the kernel
// of Tucker-decomposition algorithms — the "related computational
// kernels" to which the paper's conclusion says its lower-bound
// approach extends. The mode-k TTM
//
//	Y = X x_k U^T,   Y(i_1,..,r,..,i_N) = sum_{i_k} X(i) U(i_k, r)
//
// replaces dimension I_k by U's column count. Chains of TTMs (one per
// mode) produce the Tucker core and HOOI's mode projections; like
// MTTKRP, their data movement is governed by how operands are blocked
// and ordered, and the Multi-TTM follow-up paper (arXiv:2207.10437)
// gives the matching communication lower bounds (internal/bounds
// MultiTTM).
//
// The package has two implementations:
//
//   - The engine (TTM/TTMInto, TreeInto, TruncateInto, GramInto)
//     computes every mode as blocked GEMM, and every mode Gram as a
//     symmetric rank-k update, over the contiguous column-major slabs
//     of the storage order — no explicit unfolding is ever materialized
//     — with a pooled grow-only Workspace so steady-state passes
//     allocate nothing. One HOOI sweep body is its only multi-mode
//     contraction: TreeInto's projections on a dimension tree planned
//     from the shapes, then the core as one TTM of the last projection,
//     which SweepCost prices to the word. Results are bitwise
//     independent of the worker count: parallelism moves whole
//     single-threaded slab GEMMs or fixed Gram chunks between workers
//     and merges fixed buckets with kernel.ReduceTree.
//   - TTMScalar/ChainScalar below are the retained reference
//     implementation: a per-element scatter walk with no blocking, kept
//     readable rather than fast. The engine is property-tested against
//     it over orders 1-5, every mode, and degenerate extents.
package ttm

import (
	"fmt"

	"repro/internal/tensor"
)

// TTMScalar returns Y = X x_mode U^T where U is I_mode x R: the
// mode's extent becomes R. This is the scalar reference path; use TTM
// for the blocked engine.
func TTMScalar(x *tensor.Dense, u *tensor.Matrix, mode int) *tensor.Dense {
	checkTTM(x, u, mode)
	N := x.Order()
	R := u.Cols()
	dims := x.Dims()
	outDims := append([]int(nil), dims...)
	outDims[mode] = R
	out := tensor.NewDense(outDims...)

	// Column-major walk of X; each element scatters into R output
	// positions along the contracted mode.
	outStride := strideOf(outDims, mode)
	idx := make([]int, N)
	data := x.Data()
	outData := out.Data()
	for off := 0; off < len(data); off++ {
		v := data[off]
		ik := idx[mode]
		// Output offset with i_mode = 0.
		base := 0
		mult := 1
		for k, d := range outDims {
			if k == mode {
				mult *= d
				continue
			}
			base += idx[k] * mult
			mult *= d
		}
		for r := 0; r < R; r++ {
			outData[base+r*outStride] += v * u.At(ik, r)
		}
		incIndex(idx, dims)
	}
	return out
}

// ChainScalar applies scalar TTMs for every mode except skip (skip =
// -1 applies all), contracting in ascending mode order. us[k] may be
// nil when k == skip. With the Tucker factors and skip = -1 the result
// is the core tensor. This is the reference path: the blocked engine
// computes projections with TreeInto and cores with one TTMInto of the
// last projection.
func ChainScalar(x *tensor.Dense, us []*tensor.Matrix, skip int) *tensor.Dense {
	checkChain(x, us, skip)
	out := x
	for k := 0; k < x.Order(); k++ {
		if k == skip {
			continue
		}
		out = TTMScalar(out, us[k], k)
	}
	return out
}

// Flops returns the multiply-add count of one mode-k TTM: 2*I*R.
func Flops(x *tensor.Dense, R int) int64 {
	return 2 * int64(x.Elems()) * int64(R)
}

// checkTTM validates one mode-k TTM's operands (shared by the scalar
// and engine paths, so both panic identically).
func checkTTM(x *tensor.Dense, u *tensor.Matrix, mode int) {
	N := x.Order()
	if mode < 0 || mode >= N {
		panic(fmt.Sprintf("ttm: mode %d out of range for order %d", mode, N))
	}
	if u.Rows() != x.Dim(mode) {
		panic(fmt.Sprintf("ttm: U has %d rows, mode %d has extent %d", u.Rows(), mode, x.Dim(mode)))
	}
}

// checkChain validates the matrices of every mode other than skip
// against x.
func checkChain(x *tensor.Dense, us []*tensor.Matrix, skip int) {
	if len(us) != x.Order() {
		panic(fmt.Sprintf("ttm: %d matrices for order-%d tensor", len(us), x.Order()))
	}
	for k := range us {
		if k == skip {
			continue
		}
		u := us[k]
		if u == nil {
			panic(fmt.Sprintf("ttm: matrix %d is nil", k))
		}
		if u.Rows() != x.Dim(k) {
			panic(fmt.Sprintf("ttm: matrix %d has %d rows, mode extent is %d", k, u.Rows(), x.Dim(k)))
		}
	}
}

func strideOf(dims []int, mode int) int {
	s := 1
	for k := 0; k < mode; k++ {
		s *= dims[k]
	}
	return s
}

func incIndex(idx, dims []int) {
	for k := range idx {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}
