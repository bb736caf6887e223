package repro_test

// Godoc examples: runnable snippets with verified output, exercising
// the public API exactly as a downstream user would.

import (
	"fmt"

	"repro"
)

// ExampleMTTKRP computes one MTTKRP directly.
func ExampleMTTKRP() {
	dims := []int{4, 4, 4}
	x := repro.RandomDense(1, dims...)
	factors := repro.RandomFactors(2, dims, 3)
	b, err := repro.MTTKRP(x, factors, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(b.Rows(), b.Cols())
	// Output: 4 3
}

// ExampleSequentialMTTKRP shows exact load/store accounting on the
// two-level memory model: Algorithm 1 moves exactly I + I*R*(N+1)
// words.
func ExampleSequentialMTTKRP() {
	dims := []int{4, 4, 4} // I = 64
	x := repro.RandomDense(1, dims...)
	factors := repro.RandomFactors(2, dims, 2) // R = 2
	res, err := repro.SequentialMTTKRP(x, factors, 0, repro.SeqOptions{
		Algorithm: repro.SeqUnblocked,
		M:         16,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Counts.Words() == 64+64*2*4)
	// Output: true
}

// ExampleParallelMTTKRP runs Algorithm 3 on eight simulated
// processors and verifies the result against the direct kernel.
func ExampleParallelMTTKRP() {
	dims := []int{8, 8, 8}
	x := repro.RandomDense(3, dims...)
	factors := repro.RandomFactors(4, dims, 4)
	res, err := repro.ParallelMTTKRP(x, factors, 0, repro.ParOptions{
		Algorithm: repro.ParStationary,
		Grid:      []int{2, 2, 2},
	})
	if err != nil {
		panic(err)
	}
	b, err := repro.MTTKRP(x, factors, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.B.EqualApprox(b, 1e-9))
	fmt.Println(res.MaxWords() > 0)
	// Output:
	// true
	// true
}

// ExampleLowerBounds evaluates the paper's bounds for one parameter
// point.
func ExampleLowerBounds() {
	b := repro.LowerBounds([]int{64, 64, 64}, 16, 4096, 64)
	fmt.Println(b.SeqMemDependent > 0)
	fmt.Println(b.ParIndependent2 > 0)
	// Output:
	// true
	// true
}

// ExampleCPDecompose recovers an exactly low-rank tensor.
func ExampleCPDecompose() {
	dims := []int{6, 6, 6}
	truth := repro.RandomFactors(7, dims, 2)
	x := repro.FromFactors(truth)
	model, _, err := repro.CPDecompose(x, repro.CPOptions{R: 2, MaxIters: 100, Seed: 9})
	if err != nil {
		panic(err)
	}
	fmt.Println(model.Fit > 0.999)
	// Output: true
}

// ExampleMTTKRPAllModes shares partial contractions across all modes.
func ExampleMTTKRPAllModes() {
	dims := []int{4, 4, 4, 4}
	x := repro.RandomDense(11, dims...)
	factors := repro.RandomFactors(12, dims, 2)
	multi, err := repro.MTTKRPAllModes(x, factors)
	if err != nil {
		panic(err)
	}
	ok := true
	for n := range dims {
		b, err := repro.MTTKRP(x, factors, n)
		if err != nil || !multi.B[n].EqualApprox(b, 1e-9) {
			ok = false
		}
	}
	fmt.Println(ok)
	// Output: true
}
