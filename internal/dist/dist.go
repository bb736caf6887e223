// Package dist implements the data distributions of the paper's
// parallel algorithms.
//
// Stationary (Section V-C1): processors form an N-way grid; processor
// p owns the subtensor X(S^(1)_{p1}, ..., S^(N)_{pN}) and, for each
// mode k, a part of the block row A(k)(S^(k)_{pk}, :) partitioned
// across the hyperslice of processors sharing p_k.
//
// General (Section V-D1): processors form an (N+1)-way grid whose
// extra dimension (index 0 here) splits the rank dimension [R] into
// P_0 parts; the subtensor is additionally partitioned across the
// P_0-fibers, and factor block rows are restricted to the rank part
// T_{p0} and partitioned across processors sharing (p0, pk).
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

// Stationary is the Algorithm 3 layout: an N-way grid over the tensor
// modes.
type Stationary struct {
	Dims []int
	R    int
	G    *grid.Grid
}

// NewStationary returns the layout of a tensor of the given dims and
// rank-R factors on a grid of the given shape. It returns an error
// unless R >= 1 and the shape has one extent per mode, each within
// [1, I_k], so that every processor's block is non-empty.
func NewStationary(dims []int, R int, shape []int) (Stationary, error) {
	if len(shape) != len(dims) {
		return Stationary{}, fmt.Errorf("dist: grid shape %v for order-%d tensor", shape, len(dims))
	}
	if err := checkGrid(dims, R, shape, shape); err != nil {
		return Stationary{}, err
	}
	return Stationary{Dims: append([]int(nil), dims...), R: R, G: grid.New(shape...)}, nil
}

// checkGrid rejects R < 1 and any extent of modes outside [1, I_k],
// naming the whole grid shape.
func checkGrid(dims []int, R int, modes, shape []int) error {
	if R < 1 {
		return fmt.Errorf("dist: rank %d", R)
	}
	for k, d := range dims {
		if modes[k] < 1 || modes[k] > d {
			return fmt.Errorf("dist: grid shape %v: extent %d of mode %d outside [1, %d]", shape, modes[k], k, d)
		}
	}
	return nil
}

// CheckRowShards returns an error unless every dimension is at least
// P, the condition under which the solvers' row shards give every
// processor at least one whole row of every factor.
func (d Stationary) CheckRowShards() error {
	for k, n := range d.Dims {
		if n < d.G.P() {
			return fmt.Errorf("dist: dimension %d (mode %d) smaller than P = %d", n, k, d.G.P())
		}
	}
	return nil
}

// BlockRange returns the subtensor bounds [lo, hi) owned by the
// processor at the given grid coordinates.
func (d Stationary) BlockRange(coords []int) (lo, hi []int) {
	lo = make([]int, len(d.Dims))
	hi = make([]int, len(d.Dims))
	for k := range d.Dims {
		lo[k], hi[k] = grid.Part(d.Dims[k], d.G.Extent(k), coords[k])
	}
	return lo, hi
}

// LocalTensor extracts the subtensor owned by coords from the global
// tensor (driver-side helper; in a real deployment data is born
// distributed).
func (d Stationary) LocalTensor(coords []int, x *tensor.Dense) *tensor.Dense {
	lo, hi := d.BlockRange(coords)
	return x.SubTensor(lo, hi)
}

// FactorRowRange returns the block-row bounds of mode k's factor
// matrix for hyperslice coordinate ck: S^(k)_{ck}.
func (d Stationary) FactorRowRange(k, ck int) (lo, hi int) {
	return grid.Part(d.Dims[k], d.G.Extent(k), ck)
}

// HyperSlice returns the global ranks of the processors sharing
// coordinate coords[k] in mode k — the group across which mode k's
// block row is partitioned and All-Gathered.
func (d Stationary) HyperSlice(k int, coords []int) []int {
	return d.G.Slice([]int{k}, coords)
}

// ShardRange returns the range [lo, hi) of the column-major flattening
// of mode k's block row owned by the processor at position idx within
// its hyperslice (of size q).
func (d Stationary) ShardRange(k int, ck, q, idx int) (lo, hi int) {
	rlo, rhi := d.FactorRowRange(k, ck)
	return grid.Part((rhi-rlo)*d.R, q, idx)
}

// FactorShard extracts the shard of mode k's factor owned by the
// processor at coords, given the global factor matrix (driver-side).
func (d Stationary) FactorShard(k int, coords []int, global *tensor.Matrix) []float64 {
	slice := d.HyperSlice(k, coords)
	idx := IndexIn(slice, d.G.Rank(coords))
	rlo, rhi := d.FactorRowRange(k, coords[k])
	block := global.RowBlock(rlo, rhi)
	lo, hi := d.ShardRange(k, coords[k], len(slice), idx)
	return append([]float64(nil), block.Data()[lo:hi]...)
}

// MaxTensorNnz returns max_p nnz(X_p) = prod_k ceil(I_k / P_k).
func (d Stationary) MaxTensorNnz() int64 {
	out := int64(1)
	for k := range d.Dims {
		out *= int64(grid.MaxPartSize(d.Dims[k], d.G.Extent(k)))
	}
	return out
}

// MaxFactorNnz returns max_p nnz(A(k)_p) for mode k:
// ceil(ceil(I_k/P_k)*R / (P/P_k)).
func (d Stationary) MaxFactorNnz(k int) int64 {
	rows := grid.MaxPartSize(d.Dims[k], d.G.Extent(k))
	q := d.G.P() / d.G.Extent(k)
	return int64(grid.MaxPartSize(rows*d.R, q))
}

// General is the Algorithm 4 layout: an (N+1)-way grid whose dimension
// 0 has extent P0 and splits the rank dimension; grid dimension k+1
// corresponds to tensor mode k.
type General struct {
	Dims []int
	R    int
	G    *grid.Grid
}

// NewGeneral returns the layout of a tensor of the given dims and
// rank-R factors on an (N+1)-way grid of the given shape, the rank
// split P0 first. It returns an error unless R >= 1, P0 is within
// [1, R] and every mode's extent within [1, I_k].
func NewGeneral(dims []int, R int, shape []int) (General, error) {
	if len(shape) != len(dims)+1 {
		return General{}, fmt.Errorf("dist: general grid shape %v for order-%d tensor (need N+1 extents)", shape, len(dims))
	}
	if err := checkGrid(dims, R, shape[1:], shape); err != nil {
		return General{}, err
	}
	if shape[0] < 1 || shape[0] > R {
		return General{}, fmt.Errorf("dist: grid shape %v: P0 = %d outside [1, R = %d]", shape, shape[0], R)
	}
	return General{Dims: append([]int(nil), dims...), R: R, G: grid.New(shape...)}, nil
}

// P0 returns the rank-dimension extent.
func (d General) P0() int { return d.G.Extent(0) }

// BlockRange returns the subtensor bounds of the grid-coordinate's
// tensor block (shared by the whole P0-fiber).
func (d General) BlockRange(coords []int) (lo, hi []int) {
	lo = make([]int, len(d.Dims))
	hi = make([]int, len(d.Dims))
	for k := range d.Dims {
		lo[k], hi[k] = grid.Part(d.Dims[k], d.G.Extent(k+1), coords[k+1])
	}
	return lo, hi
}

// RankRange returns the rank-column part T_{p0} = [lo, hi).
func (d General) RankRange(p0 int) (lo, hi int) {
	return grid.Part(d.R, d.G.Extent(0), p0)
}

// Fiber returns the global ranks of the P0-fiber through coords (the
// group across which the tensor block is partitioned and gathered).
func (d General) Fiber(coords []int) []int {
	fixed := make([]int, len(d.Dims))
	for k := range d.Dims {
		fixed[k] = k + 1
	}
	return d.G.Slice(fixed, coords)
}

// FactorGroup returns the global ranks sharing (p0, pk) — the group
// across which mode k's factor block is partitioned and gathered.
func (d General) FactorGroup(k int, coords []int) []int {
	return d.G.Slice([]int{0, k + 1}, coords)
}

// TensorShardRange returns the range of the block's column-major
// flattening owned by fiber position idx (fiber size = P0).
func (d General) TensorShardRange(coords []int, idx int) (lo, hi int) {
	blo, bhi := d.BlockRange(coords)
	elems := 1
	for k := range blo {
		elems *= bhi[k] - blo[k]
	}
	return grid.Part(elems, d.G.Extent(0), idx)
}

// TensorShard extracts the tensor shard owned by coords (driver-side).
func (d General) TensorShard(coords []int, x *tensor.Dense) []float64 {
	blo, bhi := d.BlockRange(coords)
	block := x.SubTensor(blo, bhi)
	lo, hi := d.TensorShardRange(coords, coords[0])
	return append([]float64(nil), block.Data()[lo:hi]...)
}

// FactorRowRange returns S^(k)_{pk} for mode k.
func (d General) FactorRowRange(k, ck int) (lo, hi int) {
	return grid.Part(d.Dims[k], d.G.Extent(k+1), ck)
}

// ShardRange returns the owned range of the column-major flattening of
// the (rows x |T_{p0}|) factor block for group position idx (group
// size q).
func (d General) ShardRange(k int, coords []int, q, idx int) (lo, hi int) {
	rlo, rhi := d.FactorRowRange(k, coords[k+1])
	clo, chi := d.RankRange(coords[0])
	return grid.Part((rhi-rlo)*(chi-clo), q, idx)
}

// FactorShard extracts the factor shard owned by coords from the
// global factor matrix (driver-side).
func (d General) FactorShard(k int, coords []int, global *tensor.Matrix) []float64 {
	group := d.FactorGroup(k, coords)
	idx := IndexIn(group, d.G.Rank(coords))
	rlo, rhi := d.FactorRowRange(k, coords[k+1])
	clo, chi := d.RankRange(coords[0])
	block := global.Block(rlo, rhi, clo, chi)
	lo, hi := d.ShardRange(k, coords, len(group), idx)
	return append([]float64(nil), block.Data()[lo:hi]...)
}

// MaxTensorNnz returns max_p nnz(X_p) = ceil(prod_k ceil(I_k/P_k) / P0).
func (d General) MaxTensorNnz() int64 {
	block := int64(1)
	for k := range d.Dims {
		block *= int64(grid.MaxPartSize(d.Dims[k], d.G.Extent(k+1)))
	}
	p0 := int64(d.G.Extent(0))
	return (block + p0 - 1) / p0
}

// MaxFactorNnz returns max_p nnz(A(k)_p) =
// ceil(ceil(I_k/P_k)*ceil(R/P0) / (P/(P_k P0))).
func (d General) MaxFactorNnz(k int) int64 {
	rows := grid.MaxPartSize(d.Dims[k], d.G.Extent(k+1))
	cols := grid.MaxPartSize(d.R, d.G.Extent(0))
	q := d.G.P() / (d.G.Extent(k+1) * d.G.Extent(0))
	return int64(grid.MaxPartSize(rows*cols, q))
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
