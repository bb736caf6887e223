// Gradient-based CP fitting: the second optimization family of the
// paper's Section II-A. The gradient with respect to *every* factor
// matrix requires the MTTKRP in every mode with the same factors —
// exactly the multi-MTTKRP setting where a dimension tree shares
// partial contractions instead of making N independent passes over
// the tensor.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	dims := []int{14, 14, 14, 14} // higher order makes the sharing pay more
	const rank = 3
	truth := repro.RandomFactors(21, dims, rank)
	x := repro.FromFactors(truth)

	// One shared dimension-tree pass computes all four MTTKRPs.
	multi, err := repro.MTTKRPAllModes(x, truth)
	if err != nil {
		log.Fatal(err)
	}
	naive := int64(len(dims)) * int64(x.Elems()) * rank * int64(len(dims)+1)
	fmt.Printf("all-modes MTTKRP: %d flops via dimension tree vs %d naive (%.2fx saved)\n",
		multi.Flops, naive, float64(naive)/float64(multi.Flops))
	for n := range dims {
		direct, err := repro.MTTKRP(x, truth, n)
		if err != nil {
			log.Fatal(err)
		}
		if !multi.B[n].EqualApprox(direct, 1e-9) {
			log.Fatalf("mode %d: dimension tree disagrees with direct kernel", n)
		}
	}
	fmt.Println("all modes verified against the direct kernel")

	// Fit by gradient descent; each iteration's gradient costs one
	// tree pass, not N tensor passes. As is standard for CP-OPT, a few
	// ALS sweeps provide the warm start.
	warm, _, err := repro.CPDecompose(x, repro.CPOptions{R: rank, MaxIters: 10, Tol: 0, Seed: 33})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nALS warm start (10 sweeps): fit %.6f\n", warm.Fit)
	model, trace, err := repro.CPDecomposeGradient(x, repro.CPGradOptions{
		R:        rank,
		MaxIters: 150,
		Seed:     33,
		Init:     warm.Factors,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngradient descent with Armijo backtracking:")
	for _, e := range trace {
		if e.Iter%25 == 0 || e.Iter == len(trace)-1 {
			fmt.Printf("  iter %3d  f = %.6e  ||grad|| = %.3e  step = %.3e\n",
				e.Iter, e.Objective, e.GradNorm, e.Step)
		}
	}
	fmt.Printf("final fit: %.6f\n", model.Fit)
}
