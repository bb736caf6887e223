// Tucker decomposition example: the other decomposition family the
// paper names. A noisy tensor with low multilinear rank is compressed
// by HOOI, started from the sequentially truncated HOSVD; the core
// captures almost all the energy at a fraction of the storage. The
// TTM chains inside HOOI are the kernels to which the paper's
// lower-bound machinery extends (Section VII).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Build a 16x16x16 tensor whose true multilinear rank is (3,3,3),
	// then perturb it.
	dims := []int{16, 16, 16}
	ranks := []int{3, 3, 3}
	core := repro.RandomDense(41, ranks...)
	x := core
	for k := range dims {
		// Random factors; orthonormality is not required to *build*
		// the data, only discovered by the decomposition.
		u := repro.RandomFactors(42+int64(k), []int{dims[k]}, ranks[k])[0]
		x = repro.TTM(x, transpose(u), k)
	}

	model, trace, err := repro.TuckerDecompose(x, repro.TuckerOptions{Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("HOOI sweeps:")
	for _, e := range trace {
		fmt.Printf("  sweep %d: fit %.10f\n", e.Iter, e.Fit)
	}
	full := dims[0] * dims[1] * dims[2]
	compressed := ranks[0]*ranks[1]*ranks[2] + dims[0]*ranks[0] + dims[1]*ranks[1] + dims[2]*ranks[2]
	fmt.Printf("\nfinal fit %.10f with %d values instead of %d (%.1fx compression)\n",
		model.Fit, compressed, full, float64(full)/float64(compressed))

	rec := model.Reconstruct()
	fmt.Printf("max reconstruction error: %.3e (||X|| = %.2f)\n", rec.MaxAbsDiff(x), x.Norm())
}

// transpose flips an I x R matrix to R x I so TTM contracts the mode
// against the factor's columns (expansion direction).
func transpose(u *repro.Matrix) *repro.Matrix {
	t := repro.NewMatrix(u.Cols(), u.Rows())
	for i := 0; i < u.Rows(); i++ {
		for j := 0; j < u.Cols(); j++ {
			t.Set(j, i, u.At(i, j))
		}
	}
	return t
}
