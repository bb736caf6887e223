// Quickstart: compute an MTTKRP three ways — the plain kernel, the
// communication-optimal blocked sequential algorithm on the two-level
// memory model, and the stationary-tensor parallel algorithm on the
// simulated distributed machine — and see that they agree while
// moving very different numbers of words.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 16 x 16 x 16 dense tensor and rank-8 factor matrices.
	dims := []int{16, 16, 16}
	x := repro.RandomDense(1, dims...)
	factors := repro.RandomFactors(2, dims, 8)
	mode := 0

	// 1. The plain kernel: B(n)(i,r) = sum_i X(i) * prod_k A(k)(i_k,r).
	b, err := repro.MTTKRP(x, factors, mode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B(%d) is %d x %d, ||B|| = %.4f\n", mode, b.Rows(), b.Cols(), b.Norm())

	// 2. Algorithm 2 (blocked) on a machine with 512 words of fast
	// memory; every load and store is counted.
	seqRes, err := repro.SequentialMTTKRP(x, factors, mode, repro.SeqOptions{
		Algorithm: repro.SeqBlocked,
		M:         512,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential blocked:  %6d words moved (loads %d + stores %d), peak fast memory %d/%d\n",
		seqRes.Counts.Words(), seqRes.Counts.Loads, seqRes.Counts.Stores, seqRes.Counts.Peak, 512)

	// 3. Algorithm 3 (stationary tensor) across 8 simulated processors;
	// the grid is chosen automatically to minimize Eq. (14).
	parRes, err := repro.ParallelMTTKRP(x, factors, mode, repro.ParOptions{
		Algorithm: repro.ParStationary,
		P:         8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel stationary: %6d words per processor (max sends+receives) on P=8\n",
		parRes.MaxWords())

	// All three agree.
	fmt.Printf("sequential matches kernel: %v\n", seqRes.B.EqualApprox(b, 1e-9))
	fmt.Printf("parallel matches kernel:   %v\n", parRes.B.EqualApprox(b, 1e-9))

	// And the measured communication respects the paper's lower bounds.
	lb := repro.LowerBounds(dims, 8, 512, 8)
	fmt.Printf("lower bounds: seq >= %.0f words, parallel >= %.0f words/proc\n",
		lb.SeqTrivial, lb.ParIndependent2)
}
