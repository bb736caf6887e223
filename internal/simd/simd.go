// Package simd is the micro-kernel dispatch layer under the blocked
// GEMM engine (internal/linalg) and the CSF sparse walk
// (internal/sparse): one set of package-level function variables,
// bound exactly once at init to the widest implementation the host
// supports — AVX2+FMA on amd64, NEON on arm64, and the portable
// scalar kernels everywhere else (and always under the purego build
// tag or REPRO_NOSIMD=1).
//
// The paper's lower bounds count words moved, so the communication
// schedule above this layer is already fixed; what SIMD buys is the
// constant factor the bounds do not see — more arithmetic per word
// while the blocking keeps the words at their floor. Every dispatch
// variable has a scalar implementation (the *Generic functions) that
// is both the portable fallback and the correctness oracle: the
// property tests pin asm-vs-scalar agreement to 1e-13 relative
// tolerance over every fringe shape.
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
package simd

import "os"

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
//	Axpy2:    o[i] += v*p[i]; d[i] += v*l[i] (fused CSF leaf update)
//	Dot:      Σ_i x[i]*y[i]
//	Dot4:     four dots sharing one x stream
//	Mul:      dst[i] = a[i]*b[i]            (prefix Hadamard)
//	MulAdd:   dst[i] += a[i]*b[i]           (CSF row update)
//	Add:      dst[i] += a[i]
//	AxpyRows: dst += Σ_c vals[c] * pk-row(idx[c])  (batched CSF leaf
//	          fold; the caller, not the shim, guarantees the gathered
//	          rows idx[c]*len(dst)+len(dst) lie within pk)
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
	Axpy2 func(o, p, d, l []float64, v float64) = Axpy2Generic
	//repro:dispatch
	Dot func(x, y []float64) float64 = DotGeneric
	//repro:dispatch
	Dot4 func(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) = Dot4Generic
	//repro:dispatch
	Mul func(dst, a, b []float64) = MulGeneric
	//repro:dispatch
	MulAdd func(dst, a, b []float64) = MulAddGeneric
	//repro:dispatch
	Add func(dst, a []float64) = AddGeneric
	//repro:dispatch
	AxpyRows func(dst, pk []float64, idx []int32, vals []float64) = AxpyRowsGeneric
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
)

// pathName is set by the per-arch init that installs wide kernels;
// it stays "scalar" on the portable path.
var pathName = "scalar"

// features lists the CPU features the detector saw, independent of
// whether they were used (REPRO_NOSIMD=1 detects but does not bind).
var features = ""

// Path reports which kernel set is bound: "avx2", "neon", or
// "scalar".
func Path() string { return pathName }

// Describe returns the one-line environment banner the report tools
// print: the dispatch path and the detected features.
func Describe() string {
	s := "simd=" + pathName
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

// ForceScalar rebinds every dispatch variable to the scalar kernels
// and returns a restore function rebinding the init-time choice. Test
// helper only: swapping kernel sets while engines run concurrently is
// a race, so callers serialize around it.
func ForceScalar() (restore func()) {
	saved := [...]any{
		Axpy4x4, Axpy4x1, Axpy1x4, Axpy, Axpy2, Dot, Dot4, Mul, MulAdd, Add,
		AxpyF32, Axpy1x4F32, DotF32, Dot4F32, AxpyRows, AxpyRowsF32,
	}
	savedPath := pathName
	bindScalar()
	return func() {
		Axpy4x4 = saved[0].(func(c0, c1, c2, c3, a0, a1, a2, a3 []float64,
			w00, w01, w02, w03, w10, w11, w12, w13,
			w20, w21, w22, w23, w30, w31, w32, w33 float64))
		Axpy4x1 = saved[1].(func(c0, c1, c2, c3, a []float64, w0, w1, w2, w3 float64))
		Axpy1x4 = saved[2].(func(c, a0, a1, a2, a3 []float64, w0, w1, w2, w3 float64))
		Axpy = saved[3].(func(c, a []float64, w float64))
		Axpy2 = saved[4].(func(o, p, d, l []float64, v float64))
		Dot = saved[5].(func(x, y []float64) float64)
		Dot4 = saved[6].(func(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64))
		Mul = saved[7].(func(dst, a, b []float64))
		MulAdd = saved[8].(func(dst, a, b []float64))
		Add = saved[9].(func(dst, a []float64))
		AxpyF32 = saved[10].(func(c []float64, a []float32, w float64))
		Axpy1x4F32 = saved[11].(func(c []float64, a0, a1, a2, a3 []float32, w0, w1, w2, w3 float64))
		DotF32 = saved[12].(func(x []float32, y []float64) float64)
		Dot4F32 = saved[13].(func(x []float32, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64))
		AxpyRows = saved[14].(func(dst, pk []float64, idx []int32, vals []float64))
		AxpyRowsF32 = saved[15].(func(dst, pk []float64, idx []int32, vals []float32))
		pathName = savedPath
	}
}

// bindScalar points every dispatch variable at the scalar kernels.
func bindScalar() {
	Axpy4x4 = Axpy4x4Generic
	Axpy4x1 = Axpy4x1Generic
	Axpy1x4 = Axpy1x4Generic
	Axpy = AxpyGeneric
	Axpy2 = Axpy2Generic
	Dot = DotGeneric
	Dot4 = Dot4Generic
	Mul = MulGeneric
	MulAdd = MulAddGeneric
	Add = AddGeneric
	AxpyF32 = AxpyF32Generic
	Axpy1x4F32 = Axpy1x4F32Generic
	DotF32 = DotF32Generic
	Dot4F32 = Dot4F32Generic
	AxpyRows = AxpyRowsGeneric
	AxpyRowsF32 = AxpyRowsF32Generic
	pathName = "scalar"
}
