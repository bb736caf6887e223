// Package dist implements the data distribution of the paper's
// parallel algorithms.
//
// General (Section V-D1): processors form an (N+1)-way grid, an N-way
// grid over the tensor modes and a dimension of extent P0 that splits
// the rank dimension [R] into P0 parts T_{p0}. The subtensor
// X(S^(1)_{p1}, ..., S^(N)_{pN}) is partitioned across the P0-fiber
// of processors sharing (p1, ..., pN), and each mode k's factor block
// A(k)(S^(k)_{pk}, T_{p0}) across the processors sharing (p0, pk).
//
// Stationary (Section V-C1) is the case P0 = 1: processor p owns the
// whole subtensor and a part of the block row A(k)(S^(k)_{pk}, :),
// partitioned across the hyperslice of processors sharing p_k.
//
// Partitions are contiguous and even (sizes differ by at most one), so
// the nnz bounds of Eq. (33) hold. Matrix blocks are flattened
// column-major; a processor's shard is a contiguous range of the
// flattening, which makes All-Gather reassembly a concatenation.
package dist

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/tensor"
)

// Layout is the distribution of an order-N tensor and its rank-R
// factors over P0·G.P() processors: G is the N-way grid over the
// tensor modes and P0 the rank split. Processor (p0, coords) is global
// rank p0 + P0·G.Rank(coords), the rank of an (N+1)-way grid whose
// dimension 0 is the rank split.
type Layout struct {
	Dims []int
	R    int
	P0   int
	G    *grid.Grid
}

// NewStationary returns the Algorithm 3 layout (P0 = 1) of a tensor of
// the given dims and rank-R factors on an N-way grid of the given
// shape. It returns an error unless R >= 1 and the shape has one
// extent per mode, each within [1, I_k], so that every processor's
// block is non-empty.
func NewStationary(dims []int, R int, shape []int) (Layout, error) {
	if len(shape) != len(dims) {
		return Layout{}, fmt.Errorf("dist: grid shape %v for order-%d tensor", shape, len(dims))
	}
	return newLayout(dims, R, 1, shape, shape)
}

// NewGeneral returns the Algorithm 4 layout of a tensor of the given
// dims and rank-R factors on an (N+1)-way grid of the given shape, the
// rank split P0 first. It returns an error unless R >= 1, P0 is within
// [1, R] and every mode's extent within [1, I_k].
func NewGeneral(dims []int, R int, shape []int) (Layout, error) {
	if len(shape) != len(dims)+1 {
		return Layout{}, fmt.Errorf("dist: general grid shape %v for order-%d tensor (need N+1 extents)", shape, len(dims))
	}
	return newLayout(dims, R, shape[0], shape[1:], shape)
}

// newLayout rejects R < 1, any extent of modes outside [1, I_k] and P0
// outside [1, R], in that order, naming the whole grid shape.
func newLayout(dims []int, R, P0 int, modes, shape []int) (Layout, error) {
	if R < 1 {
		return Layout{}, fmt.Errorf("dist: rank %d", R)
	}
	for k, d := range dims {
		if modes[k] < 1 || modes[k] > d {
			return Layout{}, fmt.Errorf("dist: grid shape %v: extent %d of mode %d outside [1, %d]", shape, modes[k], k, d)
		}
	}
	if P0 < 1 || P0 > R {
		return Layout{}, fmt.Errorf("dist: grid shape %v: P0 = %d outside [1, R = %d]", shape, P0, R)
	}
	return Layout{Dims: append([]int(nil), dims...), R: R, P0: P0, G: grid.New(modes...)}, nil
}

// P returns the number of processors, P0·G.P().
func (d Layout) P() int { return d.P0 * d.G.P() }

// Coords returns the rank part p0 and the mode-grid coordinates of
// global rank.
func (d Layout) Coords(rank int) (p0 int, coords []int) {
	return rank % d.P0, d.G.Coords(rank / d.P0)
}

// rank returns the global rank of processor (p0, coords).
func (d Layout) rank(p0 int, coords []int) int { return p0 + d.P0*d.G.Rank(coords) }

// CheckRowShards returns an error unless every dimension is at least
// P, the condition under which the solvers' row shards give every
// processor at least one whole row of every factor.
func (d Layout) CheckRowShards() error {
	for k, n := range d.Dims {
		if n < d.P() {
			return fmt.Errorf("dist: dimension %d (mode %d) smaller than P = %d", n, k, d.P())
		}
	}
	return nil
}

// BlockRange returns the subtensor bounds [lo, hi) of the block at the
// given mode-grid coordinates.
func (d Layout) BlockRange(coords []int) (lo, hi []int) {
	lo = make([]int, len(d.Dims))
	hi = make([]int, len(d.Dims))
	for k := range d.Dims {
		lo[k], hi[k] = grid.Part(d.Dims[k], d.G.Extent(k), coords[k])
	}
	return lo, hi
}

// LocalTensor extracts the block at coords from the global tensor (in
// a real deployment data is born distributed).
func (d Layout) LocalTensor(coords []int, x *tensor.Dense) *tensor.Dense {
	lo, hi := d.BlockRange(coords)
	return x.SubTensor(lo, hi)
}

// TensorShardRange returns the range of the column-major flattening of
// the block at coords owned by P0-fiber position idx.
func (d Layout) TensorShardRange(coords []int, idx int) (lo, hi int) {
	blo, bhi := d.BlockRange(coords)
	elems := 1
	for k := range blo {
		elems *= bhi[k] - blo[k]
	}
	return grid.Part(elems, d.P0, idx)
}

// FactorRowRange returns the block-row bounds of mode k's factor
// matrix for mode-grid coordinate ck: S^(k)_{ck}.
func (d Layout) FactorRowRange(k, ck int) (lo, hi int) {
	return grid.Part(d.Dims[k], d.G.Extent(k), ck)
}

// RankRange returns the rank-column part T_{p0} = [lo, hi).
func (d Layout) RankRange(p0 int) (lo, hi int) {
	return grid.Part(d.R, d.P0, p0)
}

// Slice returns, in increasing order, the global ranks of rank part p0
// whose mode-grid coordinates agree with coords on the modes listed in
// fixed (grid.Grid.Slice within the rank part).
func (d Layout) Slice(p0 int, fixed, coords []int) []int {
	ranks := d.G.Slice(fixed, coords)
	for i, g := range ranks {
		ranks[i] = p0 + d.P0*g
	}
	return ranks
}

// HyperSlice returns the global ranks sharing rank part p0 and
// coordinate coords[k] — the group across which mode k's factor block
// is partitioned and All-Gathered.
func (d Layout) HyperSlice(k, p0 int, coords []int) []int {
	return d.Slice(p0, []int{k}, coords)
}

// DepthFiber returns the global ranks of the P0-fiber through coords,
// in rank-part order: the group across which the block at coords is
// partitioned and All-Gathered.
func (d Layout) DepthFiber(coords []int) []int {
	fiber := make([]int, d.P0)
	for p0 := range fiber {
		fiber[p0] = d.rank(p0, coords)
	}
	return fiber
}

// ShardRange returns the range [lo, hi) of the column-major flattening
// of mode k's factor block at row part ck and rank part p0 owned by the
// processor at position idx within its hyperslice (of size q).
func (d Layout) ShardRange(k, p0, ck, q, idx int) (lo, hi int) {
	rlo, rhi := d.FactorRowRange(k, ck)
	clo, chi := d.RankRange(p0)
	return grid.Part((rhi-rlo)*(chi-clo), q, idx)
}

// FactorShard extracts the shard of mode k's factor owned by processor
// (p0, coords), given the global factor matrix.
func (d Layout) FactorShard(k, p0 int, coords []int, global *tensor.Matrix) []float64 {
	slice := d.HyperSlice(k, p0, coords)
	idx := IndexIn(slice, d.rank(p0, coords))
	rlo, rhi := d.FactorRowRange(k, coords[k])
	clo, chi := d.RankRange(p0)
	block := global.Block(rlo, rhi, clo, chi)
	lo, hi := d.ShardRange(k, p0, coords[k], len(slice), idx)
	return append([]float64(nil), block.Data()[lo:hi]...)
}

// MaxTensorNnz returns max_p nnz(X_p) = ceil(prod_k ceil(I_k/P_k) / P0).
func (d Layout) MaxTensorNnz() int64 {
	block := int64(1)
	for k := range d.Dims {
		block *= int64(grid.MaxPartSize(d.Dims[k], d.G.Extent(k)))
	}
	p0 := int64(d.P0)
	return (block + p0 - 1) / p0
}

// MaxFactorNnz returns max_p nnz(A(k)_p) for mode k:
// ceil(ceil(I_k/P_k)·ceil(R/P0) / (G.P()/P_k)).
func (d Layout) MaxFactorNnz(k int) int64 {
	rows := grid.MaxPartSize(d.Dims[k], d.G.Extent(k))
	cols := grid.MaxPartSize(d.R, d.P0)
	return int64(grid.MaxPartSize(rows*cols, d.G.P()/d.G.Extent(k)))
}

// MaxSends returns the ceiling-aware Eq. (18) words each processor
// sends, each bucket collective over q processors priced at (q-1)
// times its largest block: (P0-1)·MaxTensorNnz for the tensor
// All-Gather plus, per mode, (G.P()/P_k - 1)·MaxFactorNnz(k). At
// P0 = 1 it is Eq. (14).
func (d Layout) MaxSends() int64 {
	w := int64(d.P0-1) * d.MaxTensorNnz()
	for k := range d.Dims {
		q := int64(d.G.P() / d.G.Extent(k))
		w += (q - 1) * d.MaxFactorNnz(k)
	}
	return w
}

// IndexIn returns the position of rank within slice (which must
// contain it).
func IndexIn(slice []int, rank int) int {
	for i, r := range slice {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("dist: rank %d not in group %v", rank, slice))
}
