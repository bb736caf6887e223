// Sequential blocking example: how the block size of Algorithm 2
// trades fast-memory footprint against data movement, on the
// instrumented two-level memory model. Sweeping b shows the Eq. (11)
// feasibility boundary (b^N + N*b <= M) and the sweet spot near
// b ~ (alpha*M)^(1/N) used in the proof of Theorem 6.1.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	dims := []int{24, 24, 24}
	R := 8
	const M = 1000
	x := repro.RandomDense(5, dims...)
	factors := repro.RandomFactors(6, dims, R)
	ref, err := repro.MTTKRP(x, factors, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Algorithm 2 block-size sweep: dims %v, R=%d, fast memory M=%d words\n", dims, R, M)
	fmt.Printf("%-4s %-12s %-12s %s\n", "b", "words", "peak", "note")
	for b := 1; b <= 12; b++ {
		res, err := repro.SequentialMTTKRP(x, factors, 0, repro.SeqOptions{
			Algorithm: repro.SeqBlocked,
			M:         M,
			BlockSize: b,
		})
		if err != nil {
			fmt.Printf("%-4d %-12s %-12s %v\n", b, "-", "-", err)
			continue
		}
		if !res.B.EqualApprox(ref, 1e-9) {
			log.Fatalf("b=%d: wrong result", b)
		}
		note := ""
		if b == 1 {
			note = "(equivalent data reuse to Algorithm 1's factor traffic)"
		}
		fmt.Printf("%-4d %-12d %-12d %s\n", b, res.Counts.Words(), res.Counts.Peak, note)
	}

	// The automatic choice.
	auto, err := repro.SequentialMTTKRP(x, factors, 0, repro.SeqOptions{M: M})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nauto-chosen block size moves %d words (vs %d for the unblocked Algorithm 1)\n",
		auto.Counts.Words(), mustUnblocked(x, factors, M))
}

func mustUnblocked(x *repro.Dense, factors []*repro.Matrix, m int64) int64 {
	res, err := repro.SequentialMTTKRP(x, factors, 0, repro.SeqOptions{
		Algorithm: repro.SeqUnblocked,
		M:         m,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Counts.Words()
}
