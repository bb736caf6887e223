package seq

import (
	"fmt"
	"math"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ViaMatmul runs the MTTKRP-via-matrix-multiplication baseline of
// Section III-B: permute the tensor into its mode-n matricization,
// form the Khatri-Rao product explicitly, and multiply the two
// matrices with a communication-efficient blocked GEMM. This approach
// deliberately violates the atomicity assumption of Definition 2.1 —
// it is the comparator the paper argues against.
//
// Accounting:
//   - matricization: free for n = 0 (mode-0 unfolding is the memory
//     layout); otherwise a streaming permutation costing I loads +
//     I stores;
//   - explicit KRP: per rank column, load the N-1 factor columns and
//     store the J = I/I_n product entries;
//   - GEMM: square tiles of side t with 3t^2 <= M, costing
//     2*I_n*J*R/t loads + I_n*R stores, i.e. O(I + IR/sqrt(M)).
func ViaMatmul(x *tensor.Dense, factors []*tensor.Matrix, n int, mach *memsim.Machine) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N := x.Order()
	dims := x.Dims()
	In := dims[n]
	I := int64(x.Elems())
	J := I / int64(In)

	span := obs.Start(obs.PhaseSeq)
	defer span.Stop()
	start := mach.Snapshot()

	// Step 1: matricize. Mode-0 unfolding is a reshape of column-major
	// storage; other modes require a pass over the tensor through fast
	// memory in chunks.
	xn := tensor.Unfold(x, n)
	if n != 0 {
		chunk := mach.Capacity() / 2
		if chunk < 1 {
			return nil, fmt.Errorf("seq: via-matmul needs M >= 2, have %d", mach.Capacity())
		}
		for moved := int64(0); moved < I; moved += chunk {
			c := chunk
			if moved+c > I {
				c = I - moved
			}
			if err := mach.Load(c); err != nil {
				return nil, err
			}
			if err := mach.Store(c); err != nil {
				return nil, err
			}
		}
	}

	// Step 2: explicit Khatri-Rao product, one rank column at a time.
	// Fast memory holds the N-1 factor columns plus a streaming window.
	krp := tensor.KRPAll(factors, n)
	var colWords int64
	for k := 0; k < N; k++ {
		if k != n {
			colWords += int64(dims[k])
		}
	}
	if colWords+1 > mach.Capacity() {
		return nil, fmt.Errorf("seq: via-matmul KRP formation needs M >= %d, have %d", colWords+1, mach.Capacity())
	}
	for r := 0; r < R; r++ {
		if err := mach.Load(colWords); err != nil { // factor columns
			return nil, err
		}
		// Stream the J product entries out one word at a time.
		if err := mach.Alloc(1); err != nil {
			return nil, err
		}
		for j := int64(0); j < J; j++ {
			if err := mach.StoreKeep(1); err != nil {
				return nil, err
			}
		}
		if err := mach.Evict(1); err != nil {
			return nil, err
		}
		if err := mach.Evict(colWords); err != nil {
			return nil, err
		}
	}

	// Step 3: blocked GEMM B = X_(n) (In x J) * KRP (J x R).
	b, err := gemmBlocked(xn, krp, mach)
	if err != nil {
		return nil, err
	}
	end := mach.Snapshot()
	// Flops: KRP formation (N-2 multiplies per entry) + GEMM (2 per
	// multiply-add). This is the reduced operation count the baseline
	// buys by breaking atomicity.
	flops := J*int64(R)*int64(max(N-2, 0)) + 2*int64(In)*J*int64(R)
	return &Result{B: b, Counts: diff(start, end), Flops: flops}, nil
}

// GemmTile returns the square tile size used by the blocked GEMM for a
// machine of capacity M: the largest t with 3*t^2 <= M.
func GemmTile(M int64) int {
	t := int(math.Sqrt(float64(M) / 3))
	for t > 1 && 3*int64(t)*int64(t) > M {
		t--
	}
	if t < 1 {
		t = 1
	}
	return t
}

// gemmBlocked multiplies a (m x k) by b (k x n) with square tiles,
// counting loads/stores: each C tile stays resident across the k sweep
// while A and B tiles stream through.
func gemmBlocked(a, b *tensor.Matrix, mach *memsim.Machine) (*tensor.Matrix, error) {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	t := GemmTile(mach.Capacity())
	if 3*int64(t)*int64(t) > mach.Capacity() {
		return nil, fmt.Errorf("seq: GEMM needs M >= 3, have %d", mach.Capacity())
	}
	c := tensor.NewMatrix(m, n)
	for i0 := 0; i0 < m; i0 += t {
		i1 := min(i0+t, m)
		for j0 := 0; j0 < n; j0 += t {
			j1 := min(j0+t, n)
			ctile := int64(i1-i0) * int64(j1-j0)
			if err := mach.Alloc(ctile); err != nil { // C tile accumulator
				return nil, err
			}
			for l0 := 0; l0 < k; l0 += t {
				l1 := min(l0+t, k)
				atile := int64(i1-i0) * int64(l1-l0)
				btile := int64(l1-l0) * int64(j1-j0)
				if err := mach.Load(atile); err != nil {
					return nil, err
				}
				if err := mach.Load(btile); err != nil {
					return nil, err
				}
				for j := j0; j < j1; j++ {
					cj := c.Col(j)
					bj := b.Col(j)
					for l := l0; l < l1; l++ {
						al := a.Col(l)
						blj := bj[l]
						for i := i0; i < i1; i++ {
							cj[i] += al[i] * blj
						}
					}
				}
				if err := mach.Evict(atile + btile); err != nil {
					return nil, err
				}
			}
			if err := mach.Store(ctile); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}
