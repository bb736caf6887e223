package seq

import (
	"fmt"
	"math"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// BlockFits reports whether block size b satisfies the fast-memory
// constraint of Algorithm 2, Eq. (11): b^N + N*b <= M.
func BlockFits(b, N int, M int64) bool {
	if b < 1 {
		return false
	}
	// Compute b^N guarding against overflow.
	pow := int64(1)
	for i := 0; i < N; i++ {
		if pow > M { // already too big; M bounds the useful range
			return false
		}
		pow *= int64(b)
	}
	return pow+int64(N)*int64(b) <= M
}

// ChooseBlock picks the Algorithm 2 block size b = floor((alpha*M)^(1/N))
// used in the proof of Theorem 6.1, decreasing it if necessary until
// Eq. (11) holds. It returns an error when even b = 1 does not fit
// (i.e. M < N+1).
func ChooseBlock(M int64, N int, alpha float64) (int, error) {
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("seq: alpha must be in (0,1), got %v", alpha)
	}
	b := int(math.Floor(math.Pow(alpha*float64(M), 1/float64(N))))
	if b < 1 {
		b = 1
	}
	for b >= 1 && !BlockFits(b, N, M) {
		b--
	}
	if b < 1 {
		return 0, fmt.Errorf("seq: no valid block size for M=%d, N=%d (need M >= N+1)", M, N)
	}
	return b, nil
}

// Blocked runs Algorithm 2 (Sequential Blocked MTTKRP) with block size
// b on the machine. Per block it loads the subtensor once and, for each
// rank column r, loads the N-1 factor subvectors and the output
// subvector, updates the output subvector in fast memory, and stores it
// back. The communication cost is bounded by Eq. (12):
//
//	I + ceil(I1/b)*...*ceil(IN/b) * R * (N+1) * b.
func Blocked(x *tensor.Dense, factors []*tensor.Matrix, n, b int, mach *memsim.Machine) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N := x.Order()
	if b < 1 {
		return nil, fmt.Errorf("seq: block size %d < 1", b)
	}
	if !BlockFits(b, N, mach.Capacity()) {
		return nil, fmt.Errorf("seq: block size %d violates b^N + N*b <= M with N=%d, M=%d", b, N, mach.Capacity())
	}
	span := obs.Start(obs.PhaseSeq)
	defer span.Stop()
	dims := x.Dims()
	out := tensor.NewMatrix(dims[n], R)
	start := mach.Snapshot()

	// Enumerate blocks: j[k] in multiples of b.
	nblocks := make([]int, N)
	for k, d := range dims {
		nblocks[k] = (d + b - 1) / b
	}
	blk := make([]int, N) // block coordinates
	lo := make([]int, N)
	hi := make([]int, N)
	for {
		blockElems := int64(1)
		for k := 0; k < N; k++ {
			lo[k] = blk[k] * b
			hi[k] = lo[k] + b
			if hi[k] > dims[k] {
				hi[k] = dims[k]
			}
			blockElems *= int64(hi[k] - lo[k])
		}
		if err := mach.Load(blockElems); err != nil { // subtensor block
			return nil, err
		}
		bn := int64(hi[n] - lo[n])
		for r := 0; r < R; r++ {
			var vecWords int64
			for k := 0; k < N; k++ {
				if k == n {
					continue
				}
				vecWords += int64(hi[k] - lo[k])
			}
			if err := mach.Load(vecWords); err != nil { // A(k)(jk:Jk, r)
				return nil, err
			}
			if err := mach.Load(bn); err != nil { // B(n)(jn:Jn, r)
				return nil, err
			}
			// Inner loops over the block (order irrelevant to cost).
			blockKernelColumn(out, x, factors, n, r, lo, hi)
			if err := mach.Store(bn); err != nil { // store B subvector
				return nil, err
			}
			if err := mach.Evict(vecWords); err != nil {
				return nil, err
			}
		}
		if err := mach.Evict(blockElems); err != nil {
			return nil, err
		}
		// Advance block coordinates.
		done := true
		for k := 0; k < N; k++ {
			blk[k]++
			if blk[k] < nblocks[k] {
				done = false
				break
			}
			blk[k] = 0
		}
		if done {
			break
		}
	}
	end := mach.Snapshot()
	return &Result{B: out, Counts: diff(start, end), Flops: RefFlops(x, R)}, nil
}

// blockKernelColumn accumulates, for a single rank column r, the
// contribution of the subtensor block [lo, hi) into out. Products stay
// atomic: each (i, r) forms its full (N-1)-way factor product.
func blockKernelColumn(out *tensor.Matrix, x *tensor.Dense, factors []*tensor.Matrix, n, r int, lo, hi []int) {
	N := x.Order()
	idx := make([]int, N)
	copy(idx, lo)
	for {
		p := x.At(idx...)
		for k, f := range factors {
			if k == n {
				continue
			}
			p *= f.At(idx[k], r)
		}
		out.AddAt(idx[n], r, p)
		// Advance within the block.
		done := true
		for k := 0; k < N; k++ {
			idx[k]++
			if idx[k] < hi[k] {
				done = false
				break
			}
			idx[k] = lo[k]
		}
		if done {
			return
		}
	}
}
