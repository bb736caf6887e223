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
	return run(lay, x, factors, n, shape, local)
}

// General runs Algorithm 4 (PAR-GEN-MTTKRP) for mode n on a simulated
// machine with an (N+1)-way grid: shape[0] = P0 splits the rank
// dimension, shape[k+1] splits tensor mode k; a shape dist.NewGeneral
// rejects is an error. With shape[0] = 1 it is Stationary on shape[1:],
// message for message.
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
	lay, err := dist.NewGeneral(x.Dims(), R, shape)
	if err != nil {
		return nil, err
	}
	return run(lay, x, factors, n, shape, engineKernel)
}

// run is the body of every single-mode driver: Algorithm 4 for mode n
// on lay, which at P0 = 1 is Algorithm 3 line for line. shape is the
// grid the caller passed, kept as Result.Grid.
func run(lay dist.Layout, x *tensor.Dense, factors []*tensor.Matrix, n int, shape []int, local LocalKernel) (*Result, error) {
	N, P := x.Order(), lay.P()
	net := simnet.New(P)
	outShards := make([][]float64, P)
	res := &Result{
		Grid:          append([]int(nil), shape...),
		GatherWords:   make([]int64, P),
		ReduceWords:   make([]int64, P),
		ResidentWords: make([]int64, P),
	}
	err := net.Run(func(rank int) error {
		// Alg. 4 Line 3 (P0 > 1 only): All-Gather the block over the
		// P0-fiber.
		r := NewRank(lay, net, rank, x)

		// Alg. 3 Lines 3-5, Alg. 4 Lines 4-6: All-Gather each factor's
		// block (the T_{p0} columns of its block row) within
		// hyperslices.
		gathered := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			if k != n {
				gathered[k] = r.GatherShards(k, factors[k])
			}
		}
		res.GatherWords[rank] = r.Words()

		// Alg. 3 Line 6, Alg. 4 Line 7: local MTTKRP on the resident
		// subtensor.
		span := obs.StartRank(rank, obs.PhaseLocal)
		c := local(r.Block, gathered, n)
		span.Stop()

		// Peak storage: subtensor + gathered factor blocks + C
		// (Eqs. (16) and (20); the output block doubles as C's shape).
		resident := int64(r.Block.Elems()) + int64(c.Rows())*int64(c.Cols())
		for _, g := range gathered {
			if g != nil {
				resident += int64(g.Rows()) * int64(g.Cols())
			}
		}
		res.ResidentWords[rank] = resident

		// Alg. 3 Line 7, Alg. 4 Line 8: Reduce-Scatter the contribution
		// across the mode-n hyperslice.
		outShards[rank] = r.ScatterShards(n, c)
		res.ReduceWords[rank] = r.Words() - res.GatherWords[rank]
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Stats = net.AllStats()
	res.B = assemble(lay, n, outShards)
	return res, nil
}

// assemble reconstructs the global B(n) from every rank's shard of its
// mode-n block, the block row S^(n)_{p_n} in the columns T_{p0}.
func assemble(lay dist.Layout, n int, shards [][]float64) *tensor.Matrix {
	b := tensor.NewMatrix(lay.Dims[n], lay.R)
	for r := 0; r < lay.P(); r++ {
		p0, coords := lay.Coords(r)
		slice := lay.HyperSlice(n, p0, coords)
		idx := dist.IndexIn(slice, r)
		rlo, rhi := lay.FactorRowRange(n, coords[n])
		clo, _ := lay.RankRange(p0)
		rows := rhi - rlo
		lo, hi := lay.ShardRange(n, p0, coords[n], len(slice), idx)
		shard := shards[r]
		if len(shard) != hi-lo {
			panic(fmt.Sprintf("par: rank %d shard has %d words, want %d", r, len(shard), hi-lo))
		}
		for p := lo; p < hi; p++ {
			b.Set(rlo+p%rows, clo+p/rows, shard[p-lo])
		}
	}
	return b
}
