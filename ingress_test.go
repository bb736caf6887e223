package repro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// TestIngressErrors: every error-returning MTTKRP entry returns an
// error, and never panics, for each class of argument that
// tensor.CheckFactors rejects.
func TestIngressErrors(t *testing.T) {
	dims := []int{5, 4, 3}
	x := RandomDense(1, dims...)
	fs := RandomFactors(2, dims, 2)
	with := func(k int, f *Matrix) []*Matrix {
		out := append([]*Matrix(nil), fs...)
		out[k] = f
		return out
	}
	type entry func(x *Dense, fs []*Matrix, n int) error
	entries := map[string]entry{
		"MTTKRP": func(x *Dense, fs []*Matrix, n int) error {
			_, err := MTTKRP(x, fs, n)
			return err
		},
		"MTTKRPParallel": func(x *Dense, fs []*Matrix, n int) error {
			_, err := MTTKRPParallel(x, fs, n, 3)
			return err
		},
		"MTTKRPAllModes": func(x *Dense, fs []*Matrix, _ int) error {
			_, err := MTTKRPAllModes(x, fs)
			return err
		},
		"SparseMTTKRP": func(x *Dense, fs []*Matrix, n int) error {
			_, err := SparseMTTKRP(sparse.FromDense(x, 0.5), fs, n)
			return err
		},
		"par.AllModesStationary": func(x *Dense, fs []*Matrix, _ int) error {
			shape := make([]int, x.Order())
			for k := range shape {
				shape[k] = 1
			}
			_, err := par.AllModesStationary(x, fs, shape)
			return err
		},
	}
	for _, alg := range []SeqAlgorithm{SeqAuto, SeqUnblocked, SeqBlocked, SeqViaMatmul} {
		entries["SequentialMTTKRP/"+alg.String()] = func(x *Dense, fs []*Matrix, n int) error {
			_, err := SequentialMTTKRP(x, fs, n, SeqOptions{Algorithm: alg, M: 512})
			return err
		}
	}
	for _, alg := range []ParAlgorithm{ParAuto, ParStationary, ParGeneral, ParViaMatmul} {
		entries["ParallelMTTKRP/"+alg.String()] = func(x *Dense, fs []*Matrix, n int) error {
			_, err := ParallelMTTKRP(x, fs, n, ParOptions{Algorithm: alg, P: 2})
			return err
		}
	}
	allModes := map[string]bool{"MTTKRPAllModes": true, "par.AllModesStationary": true}
	for _, c := range []struct {
		name    string
		x       *Dense
		fs      []*Matrix
		n       int
		badMode bool // only the mode is bad, and all-modes entries take none
	}{
		{"order 1", RandomDense(1, 5), fs[:1], 0, false},
		{"too few factors", x, fs[:2], 0, false},
		{"too many factors", x, append(with(0, fs[0]), fs[0]), 0, false},
		{"mode 3 of an order-3 tensor", x, fs, 3, true},
		{"mode -1", x, fs, -1, true},
		{"nil factor", x, with(2, nil), 0, false},
		{"wrong rows", x, with(1, NewMatrix(7, 2)), 0, false},
		{"mixed ranks", x, with(2, NewMatrix(3, 3)), 1, false},
	} {
		for name, run := range entries {
			if allModes[name] && c.badMode {
				continue
			}
			if name == "SparseMTTKRP" && c.x.Order() < 2 {
				continue // sparse.NewCOO already rejects order 1
			}
			var err error
			noPanic(t, c.name, name, func() { err = run(c.x, c.fs, c.n) })
			if err == nil {
				t.Errorf("%s on %s: no error", name, c.name)
			}
		}
	}
}

// TestIngressGridErrors: every parallel entry point that takes a grid
// returns an error naming the grid it was passed, and never panics, for
// a grid shape the layouts reject: an extent above its dimension, a
// non-positive extent, a rank split P0 above R, or the wrong number of
// extents. ParViaMatmul rejects a non-positive extent, and every
// ParallelMTTKRP algorithm returns an error for a processor count
// below 1, the zero ParOptions included.
func TestIngressGridErrors(t *testing.T) {
	x := RandomDense(1, 4, 4, 4)
	fs := RandomFactors(2, x.Dims(), 3)
	entries := map[string]func(shape []int) error{
		"CPDecomposeParallel": func(shape []int) error {
			_, err := CPDecomposeParallel(x, shape, CPOptions{R: 3, MaxIters: 1})
			return err
		},
		"TuckerDecomposeParallel": func(shape []int) error {
			_, err := TuckerDecomposeParallel(x, shape, TuckerOptions{Ranks: []int{2, 2, 2}, MaxIters: 1}, 1)
			return err
		},
		"par.AllModesStationary": func(shape []int) error {
			_, err := par.AllModesStationary(x, fs, shape)
			return err
		},
	}
	for _, alg := range []ParAlgorithm{ParAuto, ParStationary, ParGeneral} {
		entries["ParallelMTTKRP/"+alg.String()] = func(shape []int) error {
			_, err := ParallelMTTKRP(x, fs, 0, ParOptions{Algorithm: alg, Grid: shape})
			return err
		}
	}
	for _, shape := range [][]int{
		{8, 1, 1}, {0, 1, 1}, {-1, 1, 1}, {2, 2},
		{1, 8, 1, 1}, {4, 1, 1, 1}, {0, 1, 1, 1}, {1, 1, 1, -1},
	} {
		for name, run := range entries {
			var err error
			noPanic(t, fmt.Sprint("grid ", shape), name, func() { err = run(shape) })
			if err == nil {
				t.Errorf("%s on grid %v: no error", name, shape)
			} else if !strings.Contains(err.Error(), fmt.Sprint(shape)) {
				t.Errorf("%s on grid %v: error %q does not name the grid", name, shape, err)
			}
		}
	}
	var err error
	shape := []int{-1, -2}
	noPanic(t, fmt.Sprint("grid ", shape), "ParallelMTTKRP/"+ParViaMatmul.String(), func() {
		_, err = ParallelMTTKRP(x, fs, 0, ParOptions{Algorithm: ParViaMatmul, Grid: shape})
	})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(shape)) {
		t.Errorf("ParViaMatmul on grid %v: error %v does not name the grid", shape, err)
	}
	for _, alg := range []ParAlgorithm{ParAuto, ParStationary, ParGeneral, ParViaMatmul} {
		for _, P := range []int{0, -3} {
			noPanic(t, fmt.Sprint("P = ", P), "ParallelMTTKRP/"+alg.String(), func() {
				_, err = ParallelMTTKRP(x, fs, 0, ParOptions{Algorithm: alg, P: P})
			})
			if err == nil {
				t.Errorf("ParallelMTTKRP/%v at P = %d: no error", alg, P)
			}
		}
	}
}

// FuzzMTTKRP drives the dense MTTKRP surface with order 1-5 tensors,
// extents 1-7, R 1-5, modes -2..N+1 and one of five factor sets
// (valid, a factor dropped, a participating factor nil, wrong rows,
// mixed ranks), sometimes with a nil output factor. No call may
// panic, and each must fail exactly when tensor.CheckFactors does. On
// valid input MTTKRP and MTTKRPParallel at 1 and 3 workers agree
// bitwise, and they, every MTTKRPAllModes leaf and the blocked
// SequentialMTTKRP agree with seq.Ref within a rounding tolerance
// scaled by the contraction length: this is the dimension-tree
// engine's differential check against the Definition 2.1 oracle.
func FuzzMTTKRP(f *testing.F) {
	f.Add(uint8(2), uint64(0x0605040302), uint8(3), uint8(3), uint8(0), false, int64(1))
	f.Add(uint8(4), uint64(0x0702010603), uint8(4), uint8(5), uint8(0), true, int64(2))
	f.Add(uint8(3), uint64(0x04050607), uint8(1), uint8(2), uint8(2), false, int64(3))
	f.Add(uint8(1), uint64(0x0706), uint8(2), uint8(0), uint8(3), false, int64(4))
	f.Add(uint8(2), uint64(0x030201), uint8(0), uint8(4), uint8(4), false, int64(5))
	f.Add(uint8(0), uint64(0x05), uint8(2), uint8(2), uint8(1), false, int64(6))
	f.Fuzz(func(t *testing.T, order uint8, extents uint64, rank, mode, variant uint8, nilOut bool, seed int64) {
		N := 1 + int(order)%5
		dims := make([]int, N)
		for k := range dims {
			dims[k] = 1 + int(extents>>(8*k)&0xff)%7
		}
		R := 1 + int(rank)%5
		n := int(mode)%(N+4) - 2
		x := tensor.RandomDense(seed, dims...)
		fs := tensor.RandomFactors(seed+1, dims, R)
		k := (max(n, 0) + 1) % N // participates whenever n is a mode and N >= 2
		switch variant % 5 {
		case 1:
			fs = fs[:N-1]
		case 2:
			fs[k] = nil
		case 3:
			fs[k] = tensor.RandomMatrix(seed+2, dims[k]+1, R)
		case 4:
			fs[k] = tensor.RandomMatrix(seed+2, dims[k], R+1)
		}
		if nilOut && n >= 0 && n < len(fs) {
			fs[n] = nil
		}
		at := fmt.Sprintf("dims %v R=%d mode %d variant %d nilOut %v", dims, R, n, variant%5, nilOut)
		_, checkErr := tensor.CheckFactors(x, fs, n)
		_, checkAllErr := tensor.CheckFactors(x, fs, tensor.AllModes)
		agree := func(what string, err, want error) {
			if (err == nil) != (want == nil) {
				t.Fatalf("%s: %s returned error %v, CheckFactors %v", at, what, err, want)
			}
		}

		var b, b1, b3 *Matrix
		var all *MultiModeResult
		var seqRes *SeqResult
		var err error
		noPanic(t, at, "MTTKRP", func() { b, err = MTTKRP(x, fs, n) })
		agree("MTTKRP", err, checkErr)
		noPanic(t, at, "MTTKRPParallel", func() { b1, err = MTTKRPParallel(x, fs, n, 1) })
		agree("MTTKRPParallel(1)", err, checkErr)
		noPanic(t, at, "MTTKRPParallel", func() { b3, err = MTTKRPParallel(x, fs, n, 3) })
		agree("MTTKRPParallel(3)", err, checkErr)
		noPanic(t, at, "SequentialMTTKRP", func() {
			seqRes, err = SequentialMTTKRP(x, fs, n, SeqOptions{Algorithm: SeqBlocked, M: 1 << 12})
		})
		agree("SequentialMTTKRP", err, checkErr)
		noPanic(t, at, "MTTKRPAllModes", func() { all, err = MTTKRPAllModes(x, fs) })
		agree("MTTKRPAllModes", err, checkAllErr)

		if checkErr == nil {
			for i, v := range b.Data() {
				if b1.Data()[i] != v || b3.Data()[i] != v { //repro:bitwise the worker-count-independence contract under test
					t.Fatalf("%s: workers 1 and 3 differ from the default at element %d", at, i)
				}
			}
			closeToRef(t, at+" MTTKRP", b, x, fs, n)
			closeToRef(t, at+" SequentialMTTKRP", seqRes.B, x, fs, n)
		}
		if checkAllErr == nil {
			for m, leaf := range all.B {
				closeToRef(t, fmt.Sprintf("%s MTTKRPAllModes leaf %d", at, m), leaf, x, fs, m)
			}
		}
	})
}

// noPanic runs call and fails the test if it panics.
func noPanic(t *testing.T, at, what string, call func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %s panicked: %v", at, what, r)
		}
	}()
	call()
}

// closeToRef fails unless got matches seq.Ref's mode-n MTTKRP
// elementwise to within 4(J+N)·eps of the same MTTKRP on |x| and
// |fs|, J = I/I_n the contraction length: a first-order bound on the
// rounding of two associations of one sum of N-fold products.
func closeToRef(t *testing.T, at string, got *Matrix, x *Dense, fs []*Matrix, n int) {
	t.Helper()
	const eps = 0x1p-52
	want := seq.Ref(x, fs, n)
	absX := x.Clone()
	for i, v := range absX.Data() {
		absX.Data()[i] = math.Abs(v)
	}
	absFs := make([]*Matrix, len(fs))
	for k, f := range fs {
		if k != n {
			absFs[k] = f.Clone()
			for i, v := range absFs[k].Data() {
				absFs[k].Data()[i] = math.Abs(v)
			}
		}
	}
	bound := seq.Ref(absX, absFs, n)
	tol := 4 * float64(x.Elems()/x.Dim(n)+x.Order()) * eps
	for i, w := range want.Data() {
		if d := math.Abs(got.Data()[i] - w); d > tol*bound.Data()[i] {
			t.Fatalf("%s: element %d differs from seq.Ref by %g, bound %g", at, i, d, tol*bound.Data()[i])
		}
	}
}
