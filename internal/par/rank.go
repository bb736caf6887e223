package par

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Rank is one processor of a run on the Algorithm 3 distribution
// (Section V-C1): its grid coordinates, its block of X, and the
// communicators its collectives run over, built once for the run.
// Every run on that distribution (Stationary, AllModesStationary and
// the parallel CP-ALS and HOOI solvers) is built from Ranks.
//
// A factor U_k's block row S^(k)_{p_k} is shared by the rank's mode-k
// hyperslice, and is split among its members in one of two ways:
//
//   - flattened shards: even ranges of the block row's column-major
//     flattening (dist.Stationary.ShardRange), the paper's
//     distribution, which Eq. (14) and MaxFactorNnz count;
//   - row shards: even ranges of whole rows (OwnRows), which let a
//     solver update its own rows and sum Grams from them.
type Rank struct {
	ID     int           // the rank in the network
	Coords []int         // its grid coordinates
	Block  *tensor.Dense // its block X(S^(1)_{p_1}, ..., S^(N)_{p_N})
	World  *comm.Comm    // all P ranks, in rank order
	Slices []*comm.Comm  // Slices[k]: the mode-k hyperslice, the ranks sharing coordinate k
	lay    dist.Stationary
	net    *simnet.Network
}

// NewRank builds rank id's view of a run on net with layout lay,
// cutting its block out of x. Call it on the rank's own goroutine
// inside net.Run, so that the ranks cut their blocks in parallel.
func NewRank(lay dist.Stationary, net *simnet.Network, id int, x *tensor.Dense) *Rank {
	coords := lay.G.Coords(id)
	world := make([]int, lay.G.P())
	for i := range world {
		world[i] = i
	}
	r := &Rank{
		ID:     id,
		Coords: coords,
		Block:  lay.LocalTensor(coords, x),
		World:  comm.New(net, world, id),
		Slices: make([]*comm.Comm, len(coords)),
		lay:    lay,
		net:    net,
	}
	for k := range r.Slices {
		r.Slices[k] = comm.New(net, lay.HyperSlice(k, coords), id)
	}
	return r
}

// Words returns the words the rank has sent and received so far.
func (r *Rank) Words() int64 { return r.net.RankStats(r.ID).Words() }

// Norm returns ||X||: the block's sum of squares, summed over all
// ranks by one world All-Reduce, so every rank gets bitwise the same
// value.
func (r *Rank) Norm() float64 {
	sq := 0.0
	for _, v := range r.Block.Data() {
		sq += v * v
	}
	return math.Sqrt(r.World.AllReduce([]float64{sq})[0])
}

// BlockRows returns U_k's block row [lo, hi): the rows of mode k that
// the rank's block spans.
func (r *Rank) BlockRows(k int) (lo, hi int) { return r.lay.FactorRowRange(k, r.Coords[k]) }

// Fiber returns a communicator over the mode-k fiber through the rank:
// the P_k ranks that share every grid coordinate but the k-th, whose
// block rows partition U_k, in ascending coordinate k.
func (r *Rank) Fiber(k int) *comm.Comm {
	fixed := make([]int, 0, len(r.Coords)-1)
	for d := range r.Coords {
		if d != k {
			fixed = append(fixed, d)
		}
	}
	return comm.New(r.net, r.lay.G.Slice(fixed, r.Coords), r.ID)
}

// GatherShards cuts the rank's flattened shard of U_k's block row out
// of global, all-gathers the shards over the mode-k hyperslice, and
// returns the block row.
func (r *Rank) GatherShards(k int, global *tensor.Matrix) *tensor.Matrix {
	flat := r.Slices[k].AllGatherConcat(r.lay.FactorShard(k, r.Coords, global))
	lo, hi := r.BlockRows(k)
	return tensor.NewMatrixFromData(flat, hi-lo, r.lay.R)
}

// ScatterShards reduce-scatters c, the rank's contribution to a mode-k
// block row, over the mode-k hyperslice and returns the rank's
// flattened shard of the sum.
func (r *Rank) ScatterShards(k int, c *tensor.Matrix) []float64 {
	s := r.Slices[k]
	chunks := make([][]float64, s.Size())
	for j := range chunks {
		lo, hi := r.lay.ShardRange(k, r.Coords[k], s.Size(), j)
		chunks[j] = c.Data()[lo:hi]
	}
	return s.ReduceScatterV(chunks)
}

// OwnRows returns the rows [lo, hi) of U_k that the rank owns as a row
// shard: its hyperslice position's even part of the block row.
func (r *Rank) OwnRows(k int) (lo, hi int) {
	blo, bhi := r.BlockRows(k)
	lo, hi = grid.Part(bhi-blo, r.Slices[k].Size(), r.Slices[k].Rank())
	return blo + lo, blo + hi
}

// GatherRows all-gathers the mode-k hyperslice's row shards of U_k,
// the rank's own being own, into dst, the block row. The column count
// is own's, so factors of any rank fit.
func (r *Rank) GatherRows(k int, own, dst *tensor.Matrix) {
	cols := own.Cols()
	at := 0
	for _, b := range r.Slices[k].AllGatherV(own.Data()) {
		n := len(b) / cols
		for j := 0; j < cols; j++ {
			copy(dst.Col(j)[at:at+n], b[j*n:(j+1)*n])
		}
		at += n
	}
}

// ScatterRows reduce-scatters c, the rank's contribution to a mode-k
// block row, over the mode-k hyperslice by row shards and returns the
// summed rows the rank owns.
func (r *Rank) ScatterRows(k int, c *tensor.Matrix) *tensor.Matrix {
	s := r.Slices[k]
	rows, cols := c.Rows(), c.Cols()
	chunks := make([][]float64, s.Size())
	for j := range chunks {
		lo, hi := grid.Part(rows, s.Size(), j)
		chunks[j] = c.Block(lo, hi, 0, cols).Data()
	}
	lo, hi := grid.Part(rows, s.Size(), s.Rank())
	return tensor.NewMatrixFromData(s.ReduceScatterV(chunks), hi-lo, cols)
}
