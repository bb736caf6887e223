package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// FuzzPlannedEngines draws a problem of order 2-5 with extents 1-7:
// R 1-5, one mode or AllModes, f64 or f32, and a dense tensor, a COO
// tensor of 0-300 entries with repeated coordinates, or Tucker ranks
// 1..I_k. An empty COO tensor is a dense problem by Problem's contract
// (NNZ 0), so the dense engines run its all-zero densification. Every
// registered engine that supports the problem runs through Prepare and
// Run at 1 and 3 workers, and the two results must be bitwise equal.
// The MTTKRP engines must match seq.Ref on the tensor (densified
// through COO.ToDense when sparse) and the ttm engine's core must match
// ttm.ChainScalar, each within a rounding tolerance scaled by the
// contraction length, with f32's epsilon for f32 storage. The planner
// must pick one of the engines that ran.
func FuzzPlannedEngines(f *testing.F) {
	f.Add(uint8(1), uint64(0x070605), uint8(2), uint8(0), uint8(0), false, uint16(0), int64(1))
	f.Add(uint8(1), uint64(0x040506), uint8(3), uint8(2), uint8(0), false, uint16(0), int64(2))
	f.Add(uint8(3), uint64(0x0102030201), uint8(0), uint8(0), uint8(0), true, uint16(0), int64(3))
	f.Add(uint8(1), uint64(0x060606), uint8(4), uint8(0), uint8(1), false, uint16(120), int64(4))
	f.Add(uint8(2), uint64(0x03040506), uint8(1), uint8(3), uint8(1), true, uint16(60), int64(5))
	f.Add(uint8(0), uint64(0x0505), uint8(2), uint8(1), uint8(1), false, uint16(0), int64(6))
	f.Add(uint8(2), uint64(0x06050403), uint8(2), uint8(0), uint8(2), false, uint16(0), int64(7))
	f.Fuzz(func(t *testing.T, order uint8, extents uint64, rank, mode, kind uint8, f32 bool, nnz uint16, seed int64) {
		N := 2 + int(order)%4
		dims := make([]int, N)
		for k := range dims {
			dims[k] = 1 + int(extents>>(8*k)&0xff)%7
		}
		rng := rand.New(rand.NewSource(seed))
		p := Problem{Dims: dims, R: 1 + int(rank)%5, Mode: int(mode)%(N+1) - 1}
		if p.Mode < 0 {
			p.Mode = AllModes
		}
		if f32 {
			p.DType = F32
		}
		var (
			x, absX *tensor.Dense
			coo     *sparse.COO
			fs      []*tensor.Matrix
			extra   int // entries summed into one coordinate beyond the dense contraction
		)
		switch kind % 3 {
		case 0:
			x = tensor.RandomDense(seed, dims...)
			absX = absDense(x)
		case 1:
			coo = sparse.NewCOO(dims...)
			absCOO := sparse.NewCOO(dims...)
			idx := make([]int, N)
			for e := 0; e < int(nnz)%301; e++ {
				if coo.NNZ() > 0 && rng.Intn(4) == 0 {
					j := rng.Intn(coo.NNZ())
					for k := range idx {
						idx[k] = int(coo.Coords(k)[j])
					}
				} else {
					for k, d := range dims {
						idx[k] = rng.Intn(d)
					}
				}
				v := 2*rng.Float64() - 1
				coo.Append(v, idx...)
				absCOO.Append(math.Abs(v), idx...)
			}
			x, absX = coo.ToDense(), absCOO.ToDense()
			p.NNZ, extra = int64(coo.NNZ()), coo.NNZ()
		case 2:
			p.Mode, p.DType, p.Ranks = AllModes, F64, make([]int, N)
			fs = make([]*tensor.Matrix, N)
			for k, d := range dims {
				p.Ranks[k] = 1 + rng.Intn(d)
				fs[k] = tensor.RandomMatrix(seed+int64(k)+1, d, p.Ranks[k])
			}
			x = tensor.RandomDense(seed, dims...)
			absX = absDense(x)
		}
		if fs == nil {
			fs = tensor.RandomFactors(seed+1, dims, p.R)
		}
		absFs := absFactors(fs)
		at := fmt.Sprintf("dims %v R=%d mode %d %s nnz %d ranks %v", dims, p.R, p.Mode, p.DType, p.NNZ, p.Ranks)
		eps := 0x1p-52
		if p.DType == F32 {
			eps = 0x1p-23
		}

		ran := map[string]bool{}
		for _, e := range engines {
			if !e.Supports(p) {
				continue
			}
			ran[e.Name()] = true
			inst := &Instance{Factors: fs}
			if p.Sparse() {
				inst.COO = coo
			} else {
				inst.X = x
			}
			if err := e.Prepare(p, inst); err != nil {
				t.Fatalf("%s: %s Prepare: %v", at, e.Name(), err)
			}
			var r1, r3 Result
			e.Run(p, inst, &r1, 1)
			got := resultBits(&r1)
			e.Run(p, inst, &r3, 3)
			if msg := diffBits(resultBits(&r3), got); msg != "" {
				t.Fatalf("%s: %s at 3 workers vs 1: %s", at, e.Name(), msg)
			}
			if p.Tucker() {
				want := ttm.ChainScalar(x, fs, -1).Data()
				bound := ttm.ChainScalar(absX, absFs, -1).Data()
				closeTo(t, at+" ttm core", got[0], want, bound, 4*float64(len(x.Data())+N)*eps)
				continue
			}
			modes := []int{p.Mode}
			if p.Mode == AllModes {
				modes = modes[:0]
				for n := range dims {
					modes = append(modes, n)
				}
			}
			if len(got) != len(modes) {
				t.Fatalf("%s: %s left %d outputs for %d modes", at, e.Name(), len(got), len(modes))
			}
			for o, n := range modes {
				want := seq.Ref(x, fs, n).Data()
				bound := seq.Ref(absX, absFs, n).Data()
				tol := 4 * float64(len(x.Data())/dims[n]+N+extra) * eps
				closeTo(t, fmt.Sprintf("%s %s mode %d", at, e.Name(), n), got[o], want, bound, tol)
			}
		}
		c, err := Plan(p, testCal())
		if err != nil {
			t.Fatalf("%s: Plan: %v", at, err)
		}
		if !ran[c.Engine] {
			t.Fatalf("%s: planned %q, which does not support the problem (ran %v)", at, c.Engine, ran)
		}
	})
}

// closeTo fails unless |got - want| <= tol * bound elementwise, where
// bound is the same contraction over absolute values.
func closeTo(t *testing.T, at string, got, want, bound []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", at, len(got), len(want))
	}
	for i, w := range want {
		if d := math.Abs(got[i] - w); !(d <= tol*bound[i]) {
			t.Fatalf("%s: element %d is %g, oracle %g (diff %g, bound %g)", at, i, got[i], w, d, tol*bound[i])
		}
	}
}

// absDense returns |x| elementwise.
func absDense(x *tensor.Dense) *tensor.Dense {
	out := x.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = math.Abs(v)
	}
	return out
}

// absFactors returns |U| elementwise for every factor.
func absFactors(fs []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(fs))
	for k, f := range fs {
		out[k] = f.Clone()
		for i, v := range out[k].Data() {
			out[k].Data()[i] = math.Abs(v)
		}
	}
	return out
}
