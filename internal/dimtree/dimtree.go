// Package dimtree computes the MTTKRP for *all* N modes at once using
// a dimension tree, the multi-MTTKRP optimization the paper's
// conclusion points to ("optimizing over multiple MTTKRPs can save
// both communication and computation", citing Phan et al.). Gradient-
// based CP algorithms need B(n) for every mode with the same factors;
// computing them independently costs N full passes over the tensor,
// while a dimension tree shares partial contractions:
//
//	          {0,...,N-1}  (the tensor X)
//	         /           \
//	contract away R-half   contract away L-half
//	     {0,..,m-1}            {m,..,N-1}
//	     /    \                 /    \
//	   ...    ...             ...    ...
//	   {n}  -> B(n) at each leaf
//
// A node holding modes S stores the partial MTTKRP
// T_S(i_S, r) = sum_{i not in S} X(i) * prod_{k not in S} A(k)(i_k, r),
// a dense tensor of shape (I_k for k in S) x R. Only the two root
// children read X; every other contraction works on a smaller partial.
package dimtree

import "repro/internal/tensor"

// Result carries the per-mode MTTKRP outputs and the arithmetic cost.
type Result struct {
	B     []*tensor.Matrix // B[n] is the mode-n MTTKRP, I_n x R
	Flops int64            // multiply/add operations performed
}

// NaiveFlops returns the cost of computing all N MTTKRPs
// independently with the atomic kernel: N * I * R * (N+1).
func NaiveFlops(dims []int, R int) int64 {
	I := int64(1)
	for _, d := range dims {
		I *= int64(d)
	}
	N := int64(len(dims))
	return N * I * int64(R) * (N + 1)
}
