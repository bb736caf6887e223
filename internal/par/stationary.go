package par

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Stationary runs Algorithm 3 (PAR-STAT-MTTKRP) for mode n on a
// simulated machine with the given N-way processor grid shape
// (len(shape) must equal the tensor order, prod(shape) = P).
//
// The driver distributes the inputs according to Section V-C1, runs
// one goroutine per processor, and reassembles the distributed output
// for verification. Only the algorithm's collectives touch the
// network, so the measured statistics are exactly the algorithm's
// communication.
func Stationary(x *tensor.Dense, factors []*tensor.Matrix, n int, shape []int) (*Result, error) {
	return StationaryWithKernel(x, factors, n, shape, engineKernel)
}

// engineKernel is the default LocalKernel: the KRP-splitting engine run
// serially, since each simulated processor already owns a goroutine.
func engineKernel(x *tensor.Dense, factors []*tensor.Matrix, n int) *tensor.Matrix {
	return kernel.FastWorkers(x, factors, n, 1)
}

// LocalKernel computes a local MTTKRP contribution from a resident
// subtensor and gathered factor block rows.
type LocalKernel func(x *tensor.Dense, factors []*tensor.Matrix, n int) *tensor.Matrix

// NonAtomicKernel is the Eq. (17) local variant: form the explicit
// local Khatri-Rao product and multiply — fewer operations than the
// atomic kernel, identical results, and (as Section V-C3 observes)
// identical communication, since the collectives see only the data
// distribution.
func NonAtomicKernel(x *tensor.Dense, factors []*tensor.Matrix, n int) *tensor.Matrix {
	return linalg.MatMul(tensor.Unfold(x, n), tensor.KRPAll(factors, n))
}

// StationaryWithKernel is Stationary with a pluggable local kernel
// (the KRP-splitting engine by default; NonAtomicKernel for the
// Eq. (17) variant; seq.Ref for the atomic baseline).
func StationaryWithKernel(x *tensor.Dense, factors []*tensor.Matrix, n int, shape []int, local LocalKernel) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N := x.Order()
	if len(shape) != N {
		return nil, fmt.Errorf("par: grid shape %v for order-%d tensor", shape, N)
	}
	g := grid.New(shape...)
	lay := dist.NewStationary(x.Dims(), R, g)
	P := g.P()
	net := simnet.New(P)

	// Driver-side distribution (free in the model: inputs start
	// distributed).
	localX := make([]*tensor.Dense, P)
	localA := make([][][]float64, P) // [rank][mode] shard
	for r := 0; r < P; r++ {
		coords := g.Coords(r)
		localX[r] = lay.LocalTensor(coords, x)
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

		// Lines 3-5: All-Gather factor block rows within hyperslices.
		gathered := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			if k == n {
				continue
			}
			ck := comm.New(net, lay.HyperSlice(k, coords), rank)
			flat := ck.AllGatherConcat(localA[rank][k])
			rlo, rhi := lay.FactorRowRange(k, coords[k])
			if len(flat) != (rhi-rlo)*R {
				return fmt.Errorf("rank %d mode %d: gathered %d words, want %d", rank, k, len(flat), (rhi-rlo)*R)
			}
			gathered[k] = tensor.NewMatrixFromData(flat, rhi-rlo, R)
		}
		res.GatherWords[rank] = net.RankStats(rank).Words()

		// Line 6: local MTTKRP on the resident subtensor.
		span := obs.StartRank(rank, obs.PhaseLocal)
		c := local(localX[rank], gathered, n)
		span.Stop()

		// Peak storage: subtensor + replicated block rows + C
		// (Eq. (16); the output block rows double as C's shape).
		resident := int64(localX[rank].Elems())
		for k := 0; k < N; k++ {
			if k == n {
				continue
			}
			resident += int64(gathered[k].Rows()) * int64(R)
		}
		resident += int64(c.Rows()) * int64(R)
		res.ResidentWords[rank] = resident

		// Line 7: Reduce-Scatter the contribution across the mode-n
		// hyperslice.
		slice := lay.HyperSlice(n, coords)
		cn := comm.New(net, slice, rank)
		q := cn.Size()
		chunks := make([][]float64, q)
		for j := 0; j < q; j++ {
			lo, hi := lay.ShardRange(n, coords[n], q, j)
			chunks[j] = c.Data()[lo:hi]
		}
		outShards[rank] = cn.ReduceScatterV(chunks)
		res.ReduceWords[rank] = net.RankStats(rank).Words() - res.GatherWords[rank]
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Stats = net.AllStats()
	res.B = assembleStationary(lay, g, n, outShards)
	return res, nil
}

// assembleStationary reconstructs the global B(n) from the
// per-processor shards of each mode-n block row.
func assembleStationary(lay dist.Stationary, g *grid.Grid, n int, shards [][]float64) *tensor.Matrix {
	In := lay.Dims[n]
	b := tensor.NewMatrix(In, lay.R)
	for r := 0; r < g.P(); r++ {
		coords := g.Coords(r)
		slice := lay.HyperSlice(n, coords)
		idx := dist.IndexIn(slice, r)
		rlo, rhi := lay.FactorRowRange(n, coords[n])
		rows := rhi - rlo
		lo, hi := lay.ShardRange(n, coords[n], len(slice), idx)
		shard := shards[r]
		if len(shard) != hi-lo {
			panic(fmt.Sprintf("par: rank %d shard has %d words, want %d", r, len(shard), hi-lo))
		}
		for p := lo; p < hi; p++ {
			row := rlo + p%rows
			col := p / rows
			b.Set(row, col, shard[p-lo])
		}
	}
	return b
}
