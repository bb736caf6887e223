package simd

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fringeLens covers the shapes the dispatch kernels must get right:
// empty, sub-vector-width, every tail residue, and the unroll
// boundaries of both the 4-wide and 16-wide loops.
var fringeLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100}

const relTol = 1e-13

// fill writes a deterministic pseudorandom stream in [-1, 1) so every
// architecture and dispatch path tests identical inputs.
func fill(dst []float64, seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range dst {
		s = s*2862933555777941757 + 3037000493
		dst[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
	}
}

func fill32(dst []float32, seed uint64) {
	tmp := make([]float64, len(dst))
	fill(tmp, seed)
	for i, v := range tmp {
		dst[i] = float32(v)
	}
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= relTol*m
}

func checkSlices(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !relClose(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %g, scalar oracle %g (diff %g)",
				name, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// forEachLen runs f once per fringe length under a subtest.
func forEachLen(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range fringeLens {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// The weights used by the tile kernels; values chosen to be exactly
// representable so the oracle difference isolates kernel rounding.
var w16 = [16]float64{
	0.5, -0.25, 1.25, -2, 0.75, 3, -0.125, 1,
	-1.5, 0.0625, 2.5, -0.75, 1.75, -3.25, 0.375, -1,
}

func TestAxpyAgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		a := make([]float64, n)
		fill(a, 1)
		got := make([]float64, n)
		want := make([]float64, n)
		fill(got, 2)
		copy(want, got)
		Axpy(got, a, 1.5)
		AxpyGeneric(want, a, 1.5)
		checkSlices(t, "Axpy", got, want)
	})
}

func TestAxpy4x1AgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		a := make([]float64, n)
		fill(a, 7)
		var got, want [4][]float64
		for j := 0; j < 4; j++ {
			got[j] = make([]float64, n)
			fill(got[j], uint64(8+j))
			want[j] = append([]float64(nil), got[j]...)
		}
		Axpy4x1(got[0], got[1], got[2], got[3], a, w16[0], w16[1], w16[2], w16[3])
		Axpy4x1Generic(want[0], want[1], want[2], want[3], a, w16[0], w16[1], w16[2], w16[3])
		for j := 0; j < 4; j++ {
			checkSlices(t, fmt.Sprintf("Axpy4x1 c%d", j), got[j], want[j])
		}
	})
}

func TestAxpy1x4AgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		var a [4][]float64
		for k := 0; k < 4; k++ {
			a[k] = make([]float64, n)
			fill(a[k], uint64(12+k))
		}
		got := make([]float64, n)
		fill(got, 16)
		want := append([]float64(nil), got...)
		Axpy1x4(got, a[0], a[1], a[2], a[3], w16[4], w16[5], w16[6], w16[7])
		Axpy1x4Generic(want, a[0], a[1], a[2], a[3], w16[4], w16[5], w16[6], w16[7])
		checkSlices(t, "Axpy1x4", got, want)
	})
}

func TestAxpy4x4AgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		var a, got, want [4][]float64
		for k := 0; k < 4; k++ {
			a[k] = make([]float64, n)
			fill(a[k], uint64(17+k))
			got[k] = make([]float64, n)
			fill(got[k], uint64(21+k))
			want[k] = append([]float64(nil), got[k]...)
		}
		Axpy4x4(got[0], got[1], got[2], got[3], a[0], a[1], a[2], a[3],
			w16[0], w16[1], w16[2], w16[3], w16[4], w16[5], w16[6], w16[7],
			w16[8], w16[9], w16[10], w16[11], w16[12], w16[13], w16[14], w16[15])
		Axpy4x4Generic(want[0], want[1], want[2], want[3], a[0], a[1], a[2], a[3],
			w16[0], w16[1], w16[2], w16[3], w16[4], w16[5], w16[6], w16[7],
			w16[8], w16[9], w16[10], w16[11], w16[12], w16[13], w16[14], w16[15])
		for j := 0; j < 4; j++ {
			checkSlices(t, fmt.Sprintf("Axpy4x4 c%d", j), got[j], want[j])
		}
	})
}

func TestDotAgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		x := make([]float64, n)
		y := make([]float64, n)
		fill(x, 25)
		fill(y, 26)
		got := Dot(x, y)
		want := DotGeneric(x, y)
		if !relClose(got, want) {
			t.Fatalf("Dot = %g, scalar oracle %g", got, want)
		}
	})
}

func TestDot4AgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		x := make([]float64, n)
		fill(x, 27)
		var y [4][]float64
		for k := 0; k < 4; k++ {
			y[k] = make([]float64, n)
			fill(y[k], uint64(28+k))
		}
		g0, g1, g2, g3 := Dot4(x, y[0], y[1], y[2], y[3])
		w0, w1, w2, w3 := Dot4Generic(x, y[0], y[1], y[2], y[3])
		for j, pair := range [][2]float64{{g0, w0}, {g1, w1}, {g2, w2}, {g3, w3}} {
			if !relClose(pair[0], pair[1]) {
				t.Fatalf("Dot4 s%d = %g, scalar oracle %g", j, pair[0], pair[1])
			}
		}
	})
}

// TestDot2x4MatchesTwoDot4 pins the Dot2x4 contract: each of its eight
// outputs is bitwise what two Dot4 calls on the same streams return,
// on the bound path and on the scalar one. Lengths 0-67 cover every
// 8-wide/4-wide/tail split; the offset sub-slices start the streams
// off 32-byte alignment and leave a longer backing array behind them.
func TestDot2x4MatchesTwoDot4(t *testing.T) {
	check := func(t *testing.T) {
		back := make([][]float64, 6)
		for k := range back {
			back[k] = make([]float64, 80)
			fill(back[k], uint64(40+k))
		}
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				s := make([][]float64, 6)
				for k := range s {
					s[k] = back[k][off+k%2 : off+k%2+n]
				}
				x0, x1, y0, y1, y2, y3 := s[0], s[1], s[2], s[3], s[4], s[5]
				g := [8]float64{}
				g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7] = Dot2x4(x0, x1, y0, y1, y2, y3)
				w := [8]float64{}
				w[0], w[1], w[2], w[3] = Dot4(x0, y0, y1, y2, y3)
				w[4], w[5], w[6], w[7] = Dot4(x1, y0, y1, y2, y3)
				for j := range g {
					if g[j] != w[j] { //repro:bitwise the tile's contract is bitwise equality with Dot4
						t.Fatalf("n=%d off=%d: s%d%d = %g, two Dot4 give %g", n, off, j/4, j%4, g[j], w[j])
					}
				}
			}
		}
	}
	t.Run(Path(), check)
	restore := ForceScalar()
	defer restore()
	t.Run("scalar", check)
}

func TestMulMulAddAddAgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		a := make([]float64, n)
		b := make([]float64, n)
		fill(a, 32)
		fill(b, 33)

		got := make([]float64, n)
		want := make([]float64, n)
		fill(got, 34)
		copy(want, got)
		Mul(got, a, b)
		MulGeneric(want, a, b)
		checkSlices(t, "Mul", got, want)

		fill(got, 35)
		copy(want, got)
		MulAdd(got, a, b)
		MulAddGeneric(want, a, b)
		checkSlices(t, "MulAdd", got, want)

		fill(got, 36)
		copy(want, got)
		Add(got, a)
		AddGeneric(want, a)
		checkSlices(t, "Add", got, want)
	})
}

func TestF32KernelsAgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, n int) {
		var a [4][]float32
		for k := 0; k < 4; k++ {
			a[k] = make([]float32, n)
			fill32(a[k], uint64(40+k))
		}
		y := make([]float64, n)
		fill(y, 44)

		got := make([]float64, n)
		want := make([]float64, n)
		fill(got, 45)
		copy(want, got)
		AxpyF32(got, a[0], 1.25)
		AxpyF32Generic(want, a[0], 1.25)
		checkSlices(t, "AxpyF32", got, want)

		fill(got, 46)
		copy(want, got)
		Axpy1x4F32(got, a[0], a[1], a[2], a[3], w16[0], w16[1], w16[2], w16[3])
		Axpy1x4F32Generic(want, a[0], a[1], a[2], a[3], w16[0], w16[1], w16[2], w16[3])
		checkSlices(t, "Axpy1x4F32", got, want)

		gd := DotF32(a[0], y)
		wd := DotF32Generic(a[0], y)
		if !relClose(gd, wd) {
			t.Fatalf("DotF32 = %g, scalar oracle %g", gd, wd)
		}

		var y4 [4][]float64
		for k := 0; k < 4; k++ {
			y4[k] = make([]float64, n)
			fill(y4[k], uint64(47+k))
		}
		g0, g1, g2, g3 := Dot4F32(a[0], y4[0], y4[1], y4[2], y4[3])
		w0, w1, w2, w3 := Dot4F32Generic(a[0], y4[0], y4[1], y4[2], y4[3])
		for j, pair := range [][2]float64{{g0, w0}, {g1, w1}, {g2, w2}, {g3, w3}} {
			if !relClose(pair[0], pair[1]) {
				t.Fatalf("Dot4F32 s%d = %g, scalar oracle %g", j, pair[0], pair[1])
			}
		}
	})
}

// TestForceScalarRestores pins the ForceScalar contract: dispatchVars
// lists exactly the //repro:dispatch declarations of this package;
// under ForceScalar every one of them is bound to its scalar kernel
// (the tiles to nil) and Dot is bitwise DotGeneric; restore rebinds
// every one to its init-time kernel, and Path and Tiles with them.
// ForceNoTiles unbinds the tiles alone.
func TestForceScalarRestores(t *testing.T) {
	declared := dispatchDecls(t)
	listed := map[string]bool{}
	for _, d := range dispatchVars {
		listed[d.name] = true
		if !declared[d.name] {
			t.Errorf("dispatchVars lists %s, which is not a //repro:dispatch variable", d.name)
		}
	}
	for name := range declared {
		if !listed[name] {
			t.Errorf("//repro:dispatch variable %s is missing from dispatchVars", name)
		}
	}

	// code identifies the function bound to d (0 for nil).
	code := func(f any) uintptr {
		if v := reflect.ValueOf(f); v.IsValid() && !v.IsNil() {
			return v.Pointer()
		}
		return 0
	}
	bound := func(d dispatchVar) uintptr { return code(reflect.ValueOf(d.ptr).Elem().Interface()) }
	var initial [len(dispatchVars)]uintptr
	for i, d := range dispatchVars {
		initial[i] = bound(d)
	}
	initPath, initTiles := Path(), Tiles()
	checkRestored := func(t *testing.T, after string) {
		t.Helper()
		for i, d := range dispatchVars {
			if bound(d) != initial[i] {
				t.Errorf("%s after %s is not its init-time kernel", d.name, after)
			}
		}
		if Path() != initPath || Tiles() != initTiles {
			t.Fatalf("after %s: Path %q Tiles %q, want %q %q", after, Path(), Tiles(), initPath, initTiles)
		}
	}

	restore := ForceScalar()
	if Path() != "scalar" || Tiles() != "" {
		t.Fatalf("under ForceScalar: Path %q Tiles %q, want scalar and none", Path(), Tiles())
	}
	for _, d := range dispatchVars {
		if bound(d) != code(d.scalar) {
			t.Errorf("%s under ForceScalar is not its scalar kernel", d.name)
		}
	}
	x := make([]float64, 17)
	y := make([]float64, 17)
	fill(x, 60)
	fill(y, 61)
	if got, want := Dot(x, y), DotGeneric(x, y); got != want {
		t.Fatalf("forced-scalar Dot = %g not bitwise-equal to DotGeneric %g", got, want)
	}
	restore()
	checkRestored(t, "ForceScalar's restore")

	restore = ForceNoTiles()
	if Gemm16x8 != nil || Dot3x16 != nil || Dot6x8 != nil || Tiles() != "" || Path() != initPath {
		t.Fatalf("under ForceNoTiles: tiles bound or Path %q changed", Path())
	}
	for i, d := range dispatchVars {
		if d.scalar != nil && bound(d) != initial[i] {
			t.Errorf("ForceNoTiles rebound %s", d.name)
		}
	}
	restore()
	checkRestored(t, "ForceNoTiles' restore")
}

// dispatchDecls parses this package's non-test Go files for the
// variables declared under //repro:dispatch.
func dispatchDecls(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range pkgs["simd"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if !isDispatch(vs.Doc) && !isDispatch(gd.Doc) {
					continue
				}
				for _, n := range vs.Names {
					names[n.Name] = true
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no //repro:dispatch declarations")
	}
	return names
}

func isDispatch(doc *ast.CommentGroup) bool {
	if doc != nil {
		for _, c := range doc.List {
			if c.Text == "//repro:dispatch" {
				return true
			}
		}
	}
	return false
}

// TestGemm16x8FMAChain pins the 16x8 tile's contract on hosts that bind
// it: every element of C continues one math.FMA chain over l ascending
// from the value C held, over strides that read B by columns (GemmNN)
// and by rows (GemmNT), k from 0 past one 256-step cache block, and
// guard words past every operand that must stay untouched.
func TestGemm16x8FMAChain(t *testing.T) {
	if Gemm16x8 == nil {
		t.Skip("no 512-bit tiles on this host or path")
	}
	for _, k := range []int{0, 1, 2, 3, 5, 8, 17, 256, 300} {
		for _, ldc := range []int{16, 19} {
			for _, lda := range []int{16, 21} {
				for _, rowMajor := range []bool{false, true} {
					bj, bl := k+3, 1
					if rowMajor {
						bj, bl = 1, 11
					}
					a := make([]float64, max(k-1, 0)*lda+16+5)
					b := make([]float64, 7*bj+max(k-1, 0)*bl+1+5)
					c := make([]float64, 7*ldc+16+5)
					fill(a, uint64(k+1))
					fill(b, uint64(k+2))
					fill(c, uint64(k+3))
					want := append([]float64(nil), c...)
					for j := 0; j < 8; j++ {
						for i := 0; i < 16; i++ {
							s := want[i+j*ldc]
							for l := 0; l < k; l++ {
								s = math.FMA(a[i+l*lda], b[j*bj+l*bl], s)
							}
							want[i+j*ldc] = s
						}
					}
					Gemm16x8(c, ldc, a, lda, b, bj, bl, k)
					for e := range c {
						if c[e] != want[e] { //repro:bitwise the tile is the per-element FMA chain
							t.Fatalf("k=%d ldc=%d lda=%d rowMajor=%v: c[%d] = %g, FMA chain %g",
								k, ldc, lda, rowMajor, e, c[e], want[e])
						}
					}
				}
			}
		}
	}
}

// TestDot3x16MatchesDot4 and TestDot6x8MatchesDot4 pin the dot tiles'
// contract on hosts that bind them: every output is bitwise the Dot4
// value of its A column against its B column, over lengths that cover
// every 4-row step residue (tails of 0-3 rows) and strides wider than
// the columns, and words of C outside the tile stay untouched.
func TestDot3x16MatchesDot4(t *testing.T) {
	checkDotTileMatchesDot4(t, Dot3x16, 3, 16)
}

func TestDot6x8MatchesDot4(t *testing.T) {
	checkDotTileMatchesDot4(t, Dot6x8, 6, 8)
}

func checkDotTileMatchesDot4(t *testing.T, tile func(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int), rows, cols int) {
	if tile == nil {
		t.Skip("no 512-bit tiles on this host or path")
	}
	for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64, 131} {
		for _, pad := range []int{0, 3} {
			lda, ldb, ldc := m+pad, m+2*pad, rows+pad
			a := make([]float64, (rows-1)*lda+m+4)
			b := make([]float64, (cols-1)*ldb+m+4)
			c := make([]float64, (cols-1)*ldc+rows+4)
			fill(a, uint64(m+10))
			fill(b, uint64(m+11))
			fill(c, uint64(m+12))
			want := append([]float64(nil), c...)
			col := func(x []float64, ld, i int) []float64 { return x[i*ld : i*ld+m] }
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j += 4 {
					want[i+j*ldc], want[i+(j+1)*ldc], want[i+(j+2)*ldc], want[i+(j+3)*ldc] = Dot4(col(a, lda, i),
						col(b, ldb, j), col(b, ldb, j+1), col(b, ldb, j+2), col(b, ldb, j+3))
				}
			}
			tile(c, ldc, a, lda, b, ldb, m)
			for e := range c {
				if c[e] != want[e] { //repro:bitwise the tile's contract is bitwise equality with Dot4
					t.Fatalf("%dx%d m=%d pad=%d: c[%d] = %g, Dot4 gives %g", rows, cols, m, pad, e, c[e], want[e])
				}
			}
		}
	}
}

// TestScalarTailOrderMatchesUnrolled pins the satellite fix: the
// scalar dot reduces its four accumulators before folding the tail,
// so a length-(4k+r) dot equals the length-4k partial plus tail terms
// added in order.
func TestScalarTailOrderMatchesUnrolled(t *testing.T) {
	x := make([]float64, 11)
	y := make([]float64, 11)
	fill(x, 70)
	fill(y, 71)
	want := DotGeneric(x[:8], y[:8])
	want += x[8] * y[8]
	want += x[9] * y[9]
	want += x[10] * y[10]
	if got := DotGeneric(x, y); got != want {
		t.Fatalf("DotGeneric tail order: got %g, want head+tail %g", got, want)
	}
}

func TestDescribe(t *testing.T) {
	d := Describe()
	if want := "simd=" + Path(); len(d) < len(want) || d[:len(want)] != want {
		t.Fatalf("Describe() = %q, want prefix %q", d, want)
	}
}

// TestAxpyRowsAgainstScalar exercises the batched leaf fold across
// fringe row widths (including the R=16 register-resident fast path)
// and leaf counts, with repeated indices so the gather order matters.
func TestAxpyRowsAgainstScalar(t *testing.T) {
	forEachLen(t, func(t *testing.T, r int) {
		for _, leaves := range []int{0, 1, 2, 3, 7, 16, 33} {
			rows := 5
			pk := make([]float64, rows*r)
			fill(pk, 80)
			idx := make([]int32, leaves)
			vals := make([]float64, leaves)
			vals32 := make([]float32, leaves)
			fill(vals, 81)
			fill32(vals32, 82)
			for c := range idx {
				idx[c] = int32((c * 3) % rows)
			}

			got := make([]float64, r)
			want := make([]float64, r)
			fill(got, 83)
			copy(want, got)
			AxpyRows(got, pk, idx, vals)
			AxpyRowsGeneric(want, pk, idx, vals)
			checkSlices(t, fmt.Sprintf("AxpyRows leaves=%d", leaves), got, want)

			fill(got, 84)
			copy(want, got)
			AxpyRowsF32(got, pk, idx, vals32)
			AxpyRowsF32Generic(want, pk, idx, vals32)
			checkSlices(t, fmt.Sprintf("AxpyRowsF32 leaves=%d", leaves), got, want)
		}
	})
}

// TestAxpyRowsF32MatchesF64OnRounded pins the arithmetic-identity
// contract the CSF f32-vs-f64 bitwise tests build on: fed a float64
// stream that is exactly the widened float32 stream, AxpyRows and
// AxpyRowsF32 accumulate bitwise-identically on the same dispatch
// path.
func TestAxpyRowsF32MatchesF64OnRounded(t *testing.T) {
	for _, r := range []int{3, 8, 16, 17} {
		rows := 4
		pk := make([]float64, rows*r)
		fill(pk, 90)
		leaves := 11
		idx := make([]int32, leaves)
		vals32 := make([]float32, leaves)
		fill32(vals32, 91)
		vals := make([]float64, leaves)
		for c := range vals {
			vals[c] = float64(vals32[c])
			idx[c] = int32((c * 5) % rows)
		}
		a := make([]float64, r)
		b := make([]float64, r)
		fill(a, 92)
		copy(b, a)
		AxpyRows(a, pk, idx, vals)
		AxpyRowsF32(b, pk, idx, vals32)
		for i := range a {
			if a[i] != b[i] { //repro:bitwise exact widening must not change the accumulation
				t.Fatalf("R=%d: f64 vs widened-f32 fold diverge at %d: %v vs %v", r, i, a[i], b[i])
			}
		}
	}
}

// TestAxpy2RowsMatchesAxpyAndAxpyRows pins the fused all-modes leaf
// fold to the two kernels it fuses, bitwise: the output rows equal one
// Axpy call per leaf and the subtree sum equals one AxpyRows call (for
// the float32 twin, Axpy on the widened value and AxpyRowsF32), on the
// bound path and under ForceScalar. Both kernels also agree with their
// scalar generics to relTol. Row widths are the fringe lengths (the
// R=16 register path among them), leaf counts run 0-33 over five rows
// so indices repeat, and every operand is an offset window into a
// longer backing array whose guard words must stay untouched.
func TestAxpy2RowsMatchesAxpyAndAxpyRows(t *testing.T) {
	forEachLen(t, func(t *testing.T, r int) {
		checkAxpy2Rows(t, r)
		restore := ForceScalar()
		defer restore()
		checkAxpy2Rows(t, r)
	})
}

// checkAxpy2Rows runs TestAxpy2RowsMatchesAxpyAndAxpyRows's checks at
// row width r on the kernel set bound now.
func checkAxpy2Rows(t *testing.T, r int) {
	t.Helper()
	const rows = 5
	for leaves := 0; leaves <= 33; leaves++ {
		idx := make([]int32, leaves)
		for c := range idx {
			idx[c] = int32((c * 3) % rows)
		}
		vals32 := make([]float32, leaves)
		fill32(vals32, 100)
		for _, off := range []int{0, 1, 3} {
			p, _ := window(r, off, 101)
			pk, _ := window(rows*r, off, 102)
			vals, _ := window(leaves, off, 103)
			// Per variant: the fused kernel, its two-kernel oracle, and
			// its scalar generic.
			variants := [2][3]func(o, d []float64){{
				func(o, d []float64) { Axpy2Rows(o, p, d, pk, idx, vals) },
				func(o, d []float64) {
					for c, ix := range idx {
						Axpy(o[int(ix)*r:int(ix)*r+r], p, vals[c])
					}
					AxpyRows(d, pk, idx, vals)
				},
				func(o, d []float64) { Axpy2RowsGeneric(o, p, d, pk, idx, vals) },
			}, {
				func(o, d []float64) { Axpy2RowsF32(o, p, d, pk, idx, vals32) },
				func(o, d []float64) {
					for c, ix := range idx {
						Axpy(o[int(ix)*r:int(ix)*r+r], p, float64(vals32[c]))
					}
					AxpyRowsF32(d, pk, idx, vals32)
				},
				func(o, d []float64) { Axpy2RowsF32Generic(o, p, d, pk, idx, vals32) },
			}}
			for k, fns := range variants {
				name := fmt.Sprintf("%s %s leaves=%d off=%d", Path(), [2]string{"Axpy2Rows", "Axpy2RowsF32"}[k], leaves, off)
				var oBack, dBack [3][]float64
				for i, fn := range fns {
					var o, d []float64
					o, oBack[i] = window(rows*r, off, 104)
					d, dBack[i] = window(r, off, 105)
					fn(o, d)
				}
				for i := range oBack[0] {
					if oBack[0][i] != oBack[1][i] { //repro:bitwise the fused fold's contract is Axpy's FMA per output element
						t.Fatalf("%s: o[%d] = %v, Axpy per leaf gives %v", name, i-off, oBack[0][i], oBack[1][i])
					}
				}
				for i := range dBack[0] {
					if dBack[0][i] != dBack[1][i] { //repro:bitwise the fused fold's contract is AxpyRows' FMA per subtree-sum element
						t.Fatalf("%s: d[%d] = %v, AxpyRows gives %v", name, i-off, dBack[0][i], dBack[1][i])
					}
				}
				checkSlices(t, name+" o vs generic", oBack[0], oBack[2])
				checkSlices(t, name+" d vs generic", dBack[0], dBack[2])
			}
		}
	}
}

// window returns n pseudorandom words starting off words into a
// backing array with guard words on both sides, and that array.
func window(n, off int, seed uint64) (s, back []float64) {
	back = make([]float64, off+n+3)
	fill(back, seed)
	return back[off : off+n], back
}
