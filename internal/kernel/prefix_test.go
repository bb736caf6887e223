package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestPrefixChunkedRule pins the shape rule at the shapes the tests
// and the benchmark workloads use: mode 0 of 64^3 R8 and 128^3 R16
// chunks, mode 0 of 32^3 (cp-grid's local blocks) does not, and
// neither does a view whose buckets would outgrow one GEMM panel.
func TestPrefixChunkedRule(t *testing.T) {
	for _, c := range []struct {
		M, Rt, R int
		want     bool
	}{
		{64, 64 * 64, 8, true},
		{128, 128 * 128, 16, true},
		{24, 24 * 24 * 24, 8, true},
		{16 * 16, 24 * 24, 4, true},
		{32, 32 * 32, 8, false},
		{32, 32 * 32, 16, false},
		{16, 16 * 16 * 16, 8, false},
		{32 * 32, 32 * 32, 8, false},
	} {
		if got := prefixChunked(c.M, c.Rt, c.R); got != c.want {
			t.Errorf("prefixChunked(%d, %d, %d) = %v, want %v", c.M, c.Rt, c.R, got, c.want)
		}
	}
}

// TestKRPRowsMatchDefinition: KRPInto, and krpRows and krpRowsT (the
// row-major rows the chunked prefix root contracts) over any row range,
// give every entry the bits of its definition — the left-to-right
// product of the factor entries its multi-index selects — over one to
// four factors with unit extents included.
func TestKRPRowsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		nf := 1 + trial%4
		R := 1 + rng.Intn(5)
		dims := make([]int, nf)
		rows := 1
		for k := range dims {
			dims[k] = 1 + rng.Intn(7)
			rows *= dims[k]
		}
		fs := tensor.RandomFactors(int64(trial), dims, R)
		want := func(row, r int) float64 {
			v := fs[0].At(row%dims[0], r)
			row /= dims[0]
			for k := 1; k < nf; k++ {
				v *= fs[k].At(row%dims[k], r)
				row /= dims[k]
			}
			return v
		}
		panel := make([]float64, rows*R)
		KRPInto(panel, fs, 0, nf, R)
		t0 := rng.Intn(rows)
		t1 := t0 + 1 + rng.Intn(rows-t0)
		n := t1 - t0
		block := make([]float64, n*R)
		krpRows(block, fs, 0, nf, R, t0, t1)
		rowMajor := make([]float64, n*R)
		krpRowsT(rowMajor, fs, 0, nf, R, t0)
		for r := 0; r < R; r++ {
			for row := 0; row < rows; row++ {
				if got := panel[r*rows+row]; got != want(row, r) { //repro:bitwise each entry is one fixed product
					t.Fatalf("dims %v R=%d: KRPInto (%d,%d) = %v, want %v", dims, R, row, r, got, want(row, r))
				}
			}
			for i := 0; i < n; i++ {
				if got := block[r*n+i]; got != want(t0+i, r) { //repro:bitwise each entry is one fixed product
					t.Fatalf("dims %v R=%d rows [%d,%d): (%d,%d) = %v, want %v", dims, R, t0, t1, i, r, got, want(t0+i, r))
				}
				if got := rowMajor[i*R+r]; got != want(t0+i, r) { //repro:bitwise each entry is one fixed product
					t.Fatalf("dims %v R=%d row-major rows [%d,%d): (%d,%d) = %v, want %v", dims, R, t0, t1, i, r, got, want(t0+i, r))
				}
			}
		}
	}
}
