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
//
// Every S is a contiguous mode range, split at its midpoint, and one
// walk visits the tree: Engine.Sweep runs it (all modes with the same
// factors, or an ALS sweep whose leaves update them), and AllModesCost,
// CommEstimate and AllModesInstrumented price and count it.
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

// walk visits the contractions of the balanced dimension tree below
// the node [lo, hi) at depth depth; walk(0, 0, N, visit) visits the
// whole tree over N >= 2 modes. A node splits at lo + (hi-lo)/2, the
// tree's one split rule. For each child [klo, khi), left first,
// visit(depth, lo, hi, klo, khi) contracts the node (the tensor at
// depth 0) down to the child, and then the walk descends into the
// child if it holds two or more modes. The first error visit returns
// stops the walk and is returned.
//
// This pre-order is the factor order of an ALS sweep. A contraction
// that drops modes above its kept range runs before their leaves are
// visited, and one that drops modes below runs after them. So when
// each leaf visit updates its mode's factor, leaf n's contractions
// read the updated factors of the modes below n and the original
// factors of the modes above.
func walk(depth, lo, hi int, visit func(depth, lo, hi, klo, khi int) error) error {
	mid := lo + (hi-lo)/2
	for _, k := range [2][2]int{{lo, mid}, {mid, hi}} {
		if err := visit(depth, lo, hi, k[0], k[1]); err != nil {
			return err
		}
		if k[1]-k[0] > 1 {
			if err := walk(depth+1, k[0], k[1], visit); err != nil {
				return err
			}
		}
	}
	return nil
}
