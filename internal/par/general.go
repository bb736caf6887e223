package par

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// General runs Algorithm 4 (PAR-GEN-MTTKRP) for mode n on a simulated
// machine with an (N+1)-way grid: shape[0] = P0 splits the rank
// dimension, shape[k+1] splits tensor mode k. With shape[0] = 1 it
// performs exactly the communication of Algorithm 3.
//
// Compared to Stationary, the tensor block is additionally partitioned
// across each P0-fiber and All-Gathered at the start (Line 3), factor
// gathers carry only the T_{p0} rank columns, and the output
// Reduce-Scatter runs over the smaller (p0, pn)-groups.
func General(x *tensor.Dense, factors []*tensor.Matrix, n int, shape []int) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N := x.Order()
	if len(shape) != N+1 {
		return nil, fmt.Errorf("par: general grid shape %v for order-%d tensor (need N+1 extents)", shape, N)
	}
	g := grid.New(shape...)
	lay := dist.NewGeneral(x.Dims(), R, g)
	P := g.P()
	net := simnet.New(P)

	// Driver-side distribution per Section V-D1.
	localX := make([][]float64, P)
	localA := make([][][]float64, P)
	for r := 0; r < P; r++ {
		coords := g.Coords(r)
		localX[r] = lay.TensorShard(coords, x)
		localA[r] = make([][]float64, N)
		for k := 0; k < N; k++ {
			if k == n {
				continue
			}
			localA[r][k] = lay.FactorShard(k, coords, factors[k])
		}
	}

	outShards := make([][]float64, P)
	res := &Result{
		Grid:          append([]int(nil), shape...),
		GatherWords:   make([]int64, P),
		ReduceWords:   make([]int64, P),
		ResidentWords: make([]int64, P),
	}
	err = net.Run(func(rank int) error {
		coords := g.Coords(rank)
		clo, chi := lay.RankRange(coords[0])
		rloc := chi - clo

		// Line 3: All-Gather the tensor block across the P0-fiber.
		fc := comm.New(net, lay.Fiber(coords), rank)
		blockFlat := fc.AllGatherConcat(localX[rank])
		blo, bhi := lay.BlockRange(coords)
		bdims := make([]int, N)
		for k := range bdims {
			bdims[k] = bhi[k] - blo[k]
		}
		block := tensor.NewDenseFromData(blockFlat, bdims...)

		// Lines 4-6: All-Gather factor blocks (T_{p0} columns only)
		// within (p0, pk)-groups.
		gathered := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			if k == n {
				continue
			}
			gc := comm.New(net, lay.FactorGroup(k, coords), rank)
			flat := gc.AllGatherConcat(localA[rank][k])
			rlo, rhi := lay.FactorRowRange(k, coords[k+1])
			if len(flat) != (rhi-rlo)*rloc {
				return fmt.Errorf("rank %d mode %d: gathered %d words, want %d", rank, k, len(flat), (rhi-rlo)*rloc)
			}
			gathered[k] = tensor.NewMatrixFromData(flat, rhi-rlo, rloc)
		}
		res.GatherWords[rank] = net.RankStats(rank).Words()

		// Line 7: local MTTKRP over the T_{p0} columns, via the
		// KRP-splitting engine (serial: one goroutine per rank).
		span := obs.StartRank(rank, obs.PhaseLocal)
		c := kernel.FastWorkers(block, gathered, n, 1)
		span.Stop()

		// Peak storage: gathered tensor block + factor blocks + C
		// (Eq. (20)).
		resident := int64(block.Elems())
		for k := 0; k < N; k++ {
			if k == n {
				continue
			}
			resident += int64(gathered[k].Rows()) * int64(rloc)
		}
		resident += int64(c.Rows()) * int64(rloc)
		res.ResidentWords[rank] = resident

		// Line 8: Reduce-Scatter across the (p0, pn)-group.
		group := lay.FactorGroup(n, coords)
		gc := comm.New(net, group, rank)
		q := gc.Size()
		chunks := make([][]float64, q)
		for j := 0; j < q; j++ {
			lo, hi := lay.ShardRange(n, coords, q, j)
			chunks[j] = c.Data()[lo:hi]
		}
		outShards[rank] = gc.ReduceScatterV(chunks)
		res.ReduceWords[rank] = net.RankStats(rank).Words() - res.GatherWords[rank]
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Stats = net.AllStats()
	res.B = assembleGeneral(lay, g, n, outShards)
	return res, nil
}

// assembleGeneral reconstructs the global B(n) from shards of the
// (S_pn x T_p0) blocks.
func assembleGeneral(lay dist.General, g *grid.Grid, n int, shards [][]float64) *tensor.Matrix {
	b := tensor.NewMatrix(lay.Dims[n], lay.R)
	for r := 0; r < g.P(); r++ {
		coords := g.Coords(r)
		group := lay.FactorGroup(n, coords)
		idx := dist.IndexIn(group, r)
		rlo, rhi := lay.FactorRowRange(n, coords[n+1])
		clo, _ := lay.RankRange(coords[0])
		rows := rhi - rlo
		lo, hi := lay.ShardRange(n, coords, len(group), idx)
		shard := shards[r]
		if len(shard) != hi-lo {
			panic(fmt.Sprintf("par: rank %d shard has %d words, want %d", r, len(shard), hi-lo))
		}
		for p := lo; p < hi; p++ {
			row := rlo + p%rows
			col := clo + p/rows
			b.Set(row, col, shard[p-lo])
		}
	}
	return b
}
