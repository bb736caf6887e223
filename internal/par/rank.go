package par

import (
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Rank is one processor of a run on a dist.Layout (Section V-D1, and
// Section V-C1 at P0 = 1): its rank part and grid coordinates, its
// block of X, and the communicators its collectives run over, built
// once for the run. Every parallel MTTKRP and solver (Stationary,
// General, AllModesStationary and the parallel CP-ALS and HOOI
// solvers) is built from Ranks.
//
// A rank holds the columns T_{p0} of every factor. U_k's block
// A(k)(S^(k)_{p_k}, T_{p0}) is shared by the rank's mode-k hyperslice,
// the ranks sharing p0 and p_k, and is split among its members in one
// of two ways:
//
//   - flattened shards: even ranges of the block's column-major
//     flattening (dist.Layout.ShardRange), the paper's distribution,
//     which Eqs. (14) and (18) and MaxFactorNnz count;
//   - row shards: even ranges of whole rows (OwnRows), which let a
//     solver update its own rows and sum Grams from them.
type Rank struct {
	ID     int           // the rank in the network
	Coords []int         // its coordinates in the mode grid
	Block  *tensor.Dense // its block X(S^(1)_{p_1}, ..., S^(N)_{p_N})
	World  *comm.Comm    // all P ranks, in rank order
	Slices []*comm.Comm  // Slices[k]: the mode-k hyperslice, the ranks sharing p0 and coordinate k
	p0     int           // its rank part: it holds the factor columns T_{p0}
	lay    dist.Layout
	net    *simnet.Network
}

// NewRank builds rank id's view of a run on net with layout lay,
// cutting its block out of x. At P0 > 1 the rank keeps its 1/P0 shard
// of the block and All-Gathers the rest over its P0-fiber (Line 3 of
// Algorithm 4). Call it on the rank's own goroutine inside net.Run, so
// that the ranks cut their blocks in parallel.
func NewRank(lay dist.Layout, net *simnet.Network, id int, x *tensor.Dense) *Rank {
	p0, coords := lay.Coords(id)
	world := make([]int, lay.P())
	for i := range world {
		world[i] = i
	}
	r := &Rank{
		ID:     id,
		Coords: coords,
		Block:  lay.LocalTensor(coords, x),
		World:  comm.New(net, world, id),
		Slices: make([]*comm.Comm, len(coords)),
		p0:     p0,
		lay:    lay,
		net:    net,
	}
	if lay.P0 > 1 {
		lo, hi := lay.TensorShardRange(coords, p0)
		fiber := comm.New(net, lay.DepthFiber(coords), id)
		r.Block = tensor.NewDenseFromData(fiber.AllGatherConcat(r.Block.Data()[lo:hi]), r.Block.Dims()...)
	}
	for k := range r.Slices {
		r.Slices[k] = comm.New(net, lay.HyperSlice(k, p0, coords), id)
	}
	return r
}

// Words returns the words the rank has sent and received so far.
func (r *Rank) Words() int64 { return r.net.RankStats(r.ID).Words() }

// Norm returns ||X||: the block's linalg.SumSquares, counted once per
// P0-fiber and summed over all ranks by one world All-Reduce, so every
// rank gets bitwise the same value, and at P = 1 the value
// linalg.Norm gives the sequential solvers.
func (r *Rank) Norm() float64 {
	sq := 0.0
	if r.p0 == 0 {
		sq = linalg.SumSquares(r.Block.Data(), 1)
	}
	return math.Sqrt(r.World.AllReduce([]float64{sq})[0])
}

// BlockRows returns U_k's block row [lo, hi): the rows of mode k that
// the rank's block spans.
func (r *Rank) BlockRows(k int) (lo, hi int) { return r.lay.FactorRowRange(k, r.Coords[k]) }

// Fiber returns a communicator over the mode-k fiber through the rank:
// the P_k ranks that share its rank part and every grid coordinate but
// the k-th, whose block rows partition U_k, in ascending coordinate k.
func (r *Rank) Fiber(k int) *comm.Comm {
	fixed := make([]int, 0, len(r.Coords)-1)
	for d := range r.Coords {
		if d != k {
			fixed = append(fixed, d)
		}
	}
	return comm.New(r.net, r.lay.Slice(r.p0, fixed, r.Coords), r.ID)
}

// GatherShards cuts the rank's flattened shard of U_k's block out of
// global, all-gathers the shards over the mode-k hyperslice, and
// returns the block: U_k's block row in the columns T_{p0}.
func (r *Rank) GatherShards(k int, global *tensor.Matrix) *tensor.Matrix {
	flat := r.Slices[k].AllGatherConcat(r.lay.FactorShard(k, r.p0, r.Coords, global))
	lo, hi := r.BlockRows(k)
	clo, chi := r.lay.RankRange(r.p0)
	return tensor.NewMatrixFromData(flat, hi-lo, chi-clo)
}

// ScatterShards reduce-scatters c, the rank's contribution to a mode-k
// block in the columns T_{p0}, over the mode-k hyperslice and returns
// the rank's flattened shard of the sum.
func (r *Rank) ScatterShards(k int, c *tensor.Matrix) []float64 {
	s := r.Slices[k]
	chunks := make([][]float64, s.Size())
	for j := range chunks {
		lo, hi := r.lay.ShardRange(k, r.p0, r.Coords[k], s.Size(), j)
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
