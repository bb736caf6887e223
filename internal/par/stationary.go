package par

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Stationary runs Algorithm 3 (PAR-STAT-MTTKRP) for mode n on a
// simulated machine with the given N-way processor grid shape
// (prod(shape) = P); a shape dist.NewStationary rejects is an error.
//
// It runs one goroutine per processor, each taking its inputs as
// Section V-C1 distributes them (a Rank), and reassembles the
// distributed output for verification. Only the algorithm's
// collectives touch the network, so the measured statistics are
// exactly the algorithm's communication.
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
	lay, err := dist.NewStationary(x.Dims(), R, shape)
	if err != nil {
		return nil, err
	}
	N, P := x.Order(), lay.G.P()
	net := simnet.New(P)
	outShards := make([][]float64, P)
	res := &Result{
		Grid:          append([]int(nil), shape...),
		GatherWords:   make([]int64, P),
		ReduceWords:   make([]int64, P),
		ResidentWords: make([]int64, P),
	}
	err = net.Run(func(rank int) error {
		r := NewRank(lay, net, rank, x)

		// Lines 3-5: All-Gather factor block rows within hyperslices.
		gathered := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			if k != n {
				gathered[k] = r.GatherShards(k, factors[k])
			}
		}
		res.GatherWords[rank] = r.Words()

		// Line 6: local MTTKRP on the resident subtensor.
		span := obs.StartRank(rank, obs.PhaseLocal)
		c := local(r.Block, gathered, n)
		span.Stop()

		// Peak storage: subtensor + replicated block rows + C
		// (Eq. (16); the output block rows double as C's shape).
		resident := int64(r.Block.Elems())
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
		outShards[rank] = r.ScatterShards(n, c)
		res.ReduceWords[rank] = r.Words() - res.GatherWords[rank]
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Stats = net.AllStats()
	res.B = assembleStationary(lay, n, outShards)
	return res, nil
}

// assembleStationary reconstructs the global B(n) from the
// per-processor shards of each mode-n block row.
func assembleStationary(lay dist.Stationary, n int, shards [][]float64) *tensor.Matrix {
	In := lay.Dims[n]
	b := tensor.NewMatrix(In, lay.R)
	for r := 0; r < lay.G.P(); r++ {
		coords := lay.G.Coords(r)
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
