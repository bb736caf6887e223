// Package simd is the micro-kernel dispatch layer under the blocked
// GEMM engine (internal/linalg) and the CSF sparse walk
// (internal/sparse): one set of package-level function variables,
// bound exactly once at init. The levels, from the bottom:
//
//   - scalar: the portable *Generic kernels, bound everywhere by
//     default and always under the purego build tag or REPRO_NOSIMD=1;
//   - avx2 on amd64 (AVX2+FMA) and neon on arm64: every streaming and
//     tile kernel of the tables below;
//   - avx512 on amd64 hosts with AVX512F whose OS saves the opmask and
//     ZMM state: three 512-bit register tiles that the GEMM engine
//     sends its full tiles to, Gemm16x8 under GemmNN and GemmNT and
//     Dot6x8 and Dot3x16 under GemmTN. All three are 8 or 16 columns
//     wide, so rank-8 and rank-16 products reach them. They are nil on
//     every other host and path, and the engine's AVX2 blocks run
//     instead.
//
// The paper's lower bounds count words moved, so the communication
// schedule above this layer is already fixed; what SIMD buys is the
// constant factor the bounds do not see — more arithmetic per word
// while the blocking keeps the words at their floor. Every streaming
// dispatch variable has a scalar implementation (the *Generic
// functions) that is both the portable fallback and the correctness
// oracle: the property tests pin asm-vs-scalar agreement to 1e-13
// relative tolerance over every fringe shape.
//
// Determinism policy: dispatch is process-global and decided once, so
// a run uses one kernel set throughout — results are bitwise
// reproducible across worker counts (the engines' ReduceTree merge
// discipline is unchanged) and across repeated runs on the same
// machine and settings. FMA contraction and vector-lane reassociation
// mean the AVX2/NEON kernels round differently from the scalar ones;
// cross-path agreement is approximate (tested at 1e-13 relative), not
// bitwise. Pin REPRO_NOSIMD=1 (or build with -tags=purego) to
// reproduce scalar-path results exactly on any host.
//
// The avx512 level changes no bit. An element's arithmetic is fixed by
// its own chain, not by how many elements share a register: a GEMM
// element is one FMA chain over k in ascending order, and a dot is
// four lane chains over 4-row steps, reduced (l0+l2)+(l1+l3), then the
// scalar tail. A zmm tile runs eight such GEMM chains per register, or
// two outputs' four lane chains, one per 256-bit half, with the same
// operands in the same order, so it rounds exactly as the AVX2 kernels
// do at any vector width.
package simd

import (
	"os"
	"reflect"
)

// The float64 dispatch table. Each variable is bound at init and
// never reassigned afterwards (tests may swap paths via ForceScalar,
// which restores on cleanup); engines call through these exactly as
// they would a direct function.
//
// Contracts (n = len of the first destination slice; callers pass
// equal-length slices, and the shims trim sources defensively):
//
//	Axpy4x4:  c_j[i] += Σ_k a_k[i] * w_jk   (4x4 register tile)
//	Axpy4x1:  c_j[i] += a[i] * w_j          (one source, four dests)
//	Axpy1x4:  c[i]   += Σ_k a_k[i] * w_k    (four sources, one dest)
//	Axpy:     c[i]   += a[i] * w
//	Dot:      Σ_i x[i]*y[i]
//	Dot4:     four dots sharing one x stream
//	Dot2x4:   the eight dots of two x streams against four y streams
//	          (a 2x4 register tile); bitwise equal to two Dot4 calls
//	Mul:      dst[i] = a[i]*b[i]            (prefix Hadamard)
//	MulAdd:   dst[i] += a[i]*b[i]           (CSF row update)
//	Add:      dst[i] += a[i]
//	AxpyRows: dst += Σ_c vals[c] * pk-row(idx[c])  (batched CSF leaf
//	          fold; the caller, not the shim, guarantees the gathered
//	          rows idx[c]*len(dst)+len(dst) lie within pk)
//	Axpy2Rows: for each leaf c in order, o-row(idx[c]) += vals[c] * p
//	          and d += vals[c] * pk-row(idx[c]), R = len(d) (batched
//	          all-modes CSF leaf fold: per element the FMA of Axpy on
//	          the o rows and of AxpyRows on d, so bitwise equal to an
//	          Axpy loop plus one AxpyRows call; the caller guarantees
//	          the rows lie within o and pk, and o overlaps none of p,
//	          d and pk)
var (
	//repro:dispatch
	Axpy4x4 func(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
		w00, w01, w02, w03,
		w10, w11, w12, w13,
		w20, w21, w22, w23,
		w30, w31, w32, w33 float64) = Axpy4x4Generic
	//repro:dispatch
	Axpy4x1 func(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64) = Axpy4x1Generic
	//repro:dispatch
	Axpy1x4 func(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64) = Axpy1x4Generic
	//repro:dispatch
	Axpy func(c, a []float64, w float64) = AxpyGeneric
	//repro:dispatch
	Dot func(x, y []float64) float64 = DotGeneric
	//repro:dispatch
	Dot4 func(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) = Dot4Generic
	//repro:dispatch
	Dot2x4 func(x0, x1, y0, y1, y2, y3 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) = Dot2x4Generic
	//repro:dispatch
	Mul func(dst, a, b []float64) = MulGeneric
	//repro:dispatch
	MulAdd func(dst, a, b []float64) = MulAddGeneric
	//repro:dispatch
	Add func(dst, a []float64) = AddGeneric
	//repro:dispatch
	AxpyRows func(dst, pk []float64, idx []int32, vals []float64) = AxpyRowsGeneric
	//repro:dispatch
	Axpy2Rows func(o, p, d, pk []float64, idx []int32, vals []float64) = Axpy2RowsGeneric
)

// The float32-operand dispatch table: the memory-bound side of the
// float32 storage path. Sources stream in float32 (half the words the
// bounds count), accumulation stays in float64 (see DESIGN.md §10).
var (
	//repro:dispatch
	AxpyF32 func(c []float64, a []float32, w float64) = AxpyF32Generic
	//repro:dispatch
	Axpy1x4F32 func(c []float64, a0, a1, a2, a3 []float32, w0, w1, w2, w3 float64) = Axpy1x4F32Generic
	//repro:dispatch
	DotF32 func(x []float32, y []float64) float64 = DotF32Generic
	//repro:dispatch
	Dot4F32 func(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) = Dot4F32Generic
	//repro:dispatch
	AxpyRowsF32 func(dst, pk []float64, idx []int32, vals []float32) = AxpyRowsF32Generic
	//repro:dispatch
	Axpy2RowsF32 func(o, p, d, pk []float64, idx []int32, vals []float32) = Axpy2RowsF32Generic
)

// The 512-bit register tiles: nil unless the avx512 level is bound,
// so callers test for nil and fall back to the kernels above. The
// slices are addressed through explicit strides; every index is
// non-negative and the shims check the last one of each operand.
//
//	Gemm16x8: for i < 16, j < 8 and l ascending from 0 to k-1,
//	          c[i+j*ldc] = fma(a[i+l*lda], b[j*bj+l*bl], c[i+j*ldc])
//	          (a 16x8 block of C += A*B or A*B^T, continuing each
//	          element's FMA chain from the value C holds)
//	Dot3x16:  for i < 3, j < 16, c[i+j*ldc] = the Dot4 value of
//	          a[i*lda:i*lda+m] against b[j*ldb:j*ldb+m] (a 3x16 tile
//	          of C = A^T*B), bitwise what Dot4 returns on the avx2
//	          level
//	Dot6x8:   Dot3x16's contract for i < 6, j < 8 (a 6x8 tile of
//	          C = A^T*B)
var (
	//repro:dispatch
	Gemm16x8 func(c []float64, ldc int, a []float64, lda int, b []float64, bj, bl, k int)
	//repro:dispatch
	Dot3x16 func(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)
	//repro:dispatch
	Dot6x8 func(c []float64, ldc int, a []float64, lda int, b []float64, ldb, m int)
)

// pathName is set by the per-arch init that installs wide kernels;
// it stays "scalar" on the portable path.
var pathName = "scalar"

// tilesName is "avx512" while the 512-bit tiles are bound.
var tilesName = ""

// features lists the CPU features the detector saw, independent of
// whether they were used (REPRO_NOSIMD=1 detects but does not bind).
var features = ""

// Path reports which kernel set is bound: "avx2", "neon", or
// "scalar".
func Path() string { return pathName }

// Tiles reports the register-tile level bound above Path's kernel
// set: "avx512", or "" when Gemm16x8, Dot3x16 and Dot6x8 are nil.
func Tiles() string { return tilesName }

// Describe returns the one-line environment banner the report tools
// print: the dispatch path, the tile level and the detected features.
func Describe() string {
	s := "simd=" + pathName
	if tilesName != "" {
		s += " tiles=" + tilesName
	}
	if features != "" {
		s += " cpu=" + features
	}
	if noSIMD() {
		s += " (REPRO_NOSIMD=1)"
	}
	return s
}

// noSIMD reports the REPRO_NOSIMD=1 environment override. It is read
// at init by the per-arch dispatchers; Disabled re-reads it only for
// reporting.
func noSIMD() bool { return os.Getenv("REPRO_NOSIMD") == "1" }

// dispatchVar is one dispatch variable: its name, a pointer to it, and
// the scalar kernel ForceScalar binds (nil for the tiles).
type dispatchVar struct {
	name   string
	ptr    any
	scalar any
}

// dispatchVars lists every //repro:dispatch variable once; binding to
// scalar, saving and restoring all walk it, and a test checks it
// against the declarations.
var dispatchVars = [...]dispatchVar{
	{"Axpy4x4", &Axpy4x4, Axpy4x4Generic},
	{"Axpy4x1", &Axpy4x1, Axpy4x1Generic},
	{"Axpy1x4", &Axpy1x4, Axpy1x4Generic},
	{"Axpy", &Axpy, AxpyGeneric},
	{"Dot", &Dot, DotGeneric},
	{"Dot4", &Dot4, Dot4Generic},
	{"Dot2x4", &Dot2x4, Dot2x4Generic},
	{"Mul", &Mul, MulGeneric},
	{"MulAdd", &MulAdd, MulAddGeneric},
	{"Add", &Add, AddGeneric},
	{"AxpyRows", &AxpyRows, AxpyRowsGeneric},
	{"Axpy2Rows", &Axpy2Rows, Axpy2RowsGeneric},
	{"AxpyF32", &AxpyF32, AxpyF32Generic},
	{"Axpy1x4F32", &Axpy1x4F32, Axpy1x4F32Generic},
	{"DotF32", &DotF32, DotF32Generic},
	{"Dot4F32", &Dot4F32, Dot4F32Generic},
	{"AxpyRowsF32", &AxpyRowsF32, AxpyRowsF32Generic},
	{"Axpy2RowsF32", &Axpy2RowsF32, Axpy2RowsF32Generic},
	{"Gemm16x8", &Gemm16x8, nil},
	{"Dot3x16", &Dot3x16, nil},
	{"Dot6x8", &Dot6x8, nil},
}

// bind sets the dispatch variable d points at to f (nil unbinds it).
func (d dispatchVar) bind(f any) {
	v := reflect.ValueOf(d.ptr).Elem()
	if f == nil {
		v.SetZero()
		return
	}
	v.Set(reflect.ValueOf(f))
}

// save returns a function that rebinds every dispatch variable, Path
// and Tiles to their values now.
func save() (restore func()) {
	var saved [len(dispatchVars)]any
	for i, d := range dispatchVars {
		saved[i] = reflect.ValueOf(d.ptr).Elem().Interface()
	}
	path, tiles := pathName, tilesName
	return func() {
		for i, d := range dispatchVars {
			d.bind(saved[i])
		}
		pathName, tilesName = path, tiles
	}
}

// ForceScalar rebinds every dispatch variable to the scalar kernels
// (the tiles to nil) and returns a restore function rebinding the
// init-time choice. Test helper only: swapping kernel sets while
// engines run concurrently is a race, so callers serialize around it.
func ForceScalar() (restore func()) {
	restore = save()
	for _, d := range dispatchVars {
		d.bind(d.scalar)
	}
	pathName, tilesName = "scalar", ""
	return restore
}

// ForceNoTiles unbinds the 512-bit tiles alone, leaving Path's kernel
// set bound, and returns a restore function; on a host without the
// tiles it changes nothing. Test helper only, serialized like
// ForceScalar.
func ForceNoTiles() (restore func()) {
	restore = save()
	Gemm16x8, Dot3x16, Dot6x8 = nil, nil, nil
	tilesName = ""
	return restore
}
