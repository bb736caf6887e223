package seq

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/tensor"
)

// FuzzAlgorithmsAgree cross-checks all sequential algorithms on
// fuzzer-chosen shapes: any disagreement between the unblocked,
// blocked, and via-matmul algorithms is a bug. Under
// plain `go test` only the seed corpus runs; `go test -fuzz=Fuzz...`
// explores further.
func FuzzAlgorithmsAgree(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(2), uint8(0), uint8(2))
	f.Add(int64(7), uint8(2), uint8(6), uint8(3), uint8(1), uint8(1))
	f.Add(int64(42), uint8(4), uint8(2), uint8(1), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nd, side, r, mode, blk uint8) {
		N := 2 + int(nd)%3   // 2..4
		s := 2 + int(side)%4 // 2..5
		R := 1 + int(r)%4    // 1..4
		b := 1 + int(blk)%3  // 1..3
		dims := make([]int, N)
		for i := range dims {
			dims[i] = s
		}
		n := int(mode) % N
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		want := Ref(x, fs, n)

		ru, err := Unblocked(x, fs, n, memsim.New(64))
		if err != nil {
			t.Fatal(err)
		}
		if !ru.B.EqualApprox(want, 1e-9) {
			t.Fatal("Unblocked disagrees")
		}
		M := int64(1)
		for i := 0; i < N; i++ {
			M *= int64(b)
		}
		M += int64(N*b) + 8
		rb, err := Blocked(x, fs, n, b, memsim.New(M))
		if err != nil {
			t.Fatal(err)
		}
		if !rb.B.EqualApprox(want, 1e-9) {
			t.Fatal("Blocked disagrees")
		}
		rm, err := ViaMatmul(x, fs, n, memsim.New(4096))
		if err != nil {
			t.Fatal(err)
		}
		if !rm.B.EqualApprox(want, 1e-8) {
			t.Fatal("ViaMatmul disagrees")
		}
		// Invariants: measured counts within the closed-form bounds.
		if ru.Counts.Words() != UpperUnblocked(dims, R) {
			t.Fatal("Algorithm 1 cost formula violated")
		}
		if rb.Counts.Words() > UpperBlocked(dims, R, b) {
			t.Fatal("Eq. (12) violated")
		}
	})
}
