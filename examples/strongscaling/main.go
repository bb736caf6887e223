// Strong-scaling example: the measured, small-scale companion of the
// paper's Figure 4. We fix one MTTKRP problem and sweep the simulated
// machine from 1 to 64 processors, comparing the per-processor words
// of the stationary algorithm, the general algorithm, and the
// via-matrix-multiplication baseline. The simulator moves real data,
// so each point is also a correctness check.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	dims := []int{32, 32, 32} // I = 2^15
	R := 4
	x := repro.RandomDense(3, dims...)
	factors := repro.RandomFactors(4, dims, R)
	ref, err := repro.MTTKRP(x, factors, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("strong scaling of one MTTKRP (dims 32^3, R=4, mode 0)")
	fmt.Printf("%-4s  %-12s %-12s %-12s\n", "P", "stationary", "general", "via-matmul")
	for _, P := range []int{1, 2, 4, 8, 16, 32, 64} {
		row := fmt.Sprintf("%-4d", P)
		for _, alg := range []repro.ParAlgorithm{repro.ParStationary, repro.ParGeneral, repro.ParViaMatmul} {
			res, err := repro.ParallelMTTKRP(x, factors, 0, repro.ParOptions{Algorithm: alg, P: P})
			if err != nil {
				log.Fatal(err)
			}
			if !res.B.EqualApprox(ref, 1e-9) {
				log.Fatalf("P=%d %v: wrong result", P, alg)
			}
			row += fmt.Sprintf("  %-12d", res.MaxWords())
		}
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("The baseline's cost barely moves with P (its Reduce-Scatter of the")
	fmt.Println("full output is the flat region of Figure 4), while the stationary")
	fmt.Println("algorithm strong-scales; past P ~ N^N it communicates strictly less.")
}
