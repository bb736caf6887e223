package par

import (
	"repro/internal/dimtree"
	"repro/internal/dist"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// AllModesResult carries the per-mode outputs of a shared-gather
// multi-MTTKRP run.
type AllModesResult struct {
	B     []*tensor.Matrix // B[n], reassembled
	Stats []simnet.Stats

	// LocalFlops is each rank's dimension-tree arithmetic; the naive
	// per-mode kernels would cost N * |block| * R * (N+1) instead.
	LocalFlops []int64
}

// MaxWords returns the maximum over ranks of sends+receives.
func (r *AllModesResult) MaxWords() int64 {
	var m int64
	for _, s := range r.Stats {
		if w := s.Words(); w > m {
			m = w
		}
	}
	return m
}

// AllModesStationary computes the MTTKRP for every mode with the
// Algorithm 3 distribution, All-Gathering each factor's block row
// exactly once and reusing it across all N local MTTKRPs — the
// communication half of the paper's closing observation that
// "optimizing over multiple MTTKRPs can save both communication and
// computation". Per-processor words drop from
// sum_n [ sum_{k != n} (P/P_k - 1) w_k + (P/P_n - 1) w_n ]
// (N independent runs, ~N x gathers) to
// sum_k (P/P_k - 1) w_k  (gathers, once) + sum_n (P/P_n - 1) w_n
// (reduce-scatters, unavoidable per mode) — about (N+1)/(2N) of the
// independent cost.
func AllModesStationary(x *tensor.Dense, factors []*tensor.Matrix, shape []int) (*AllModesResult, error) {
	R, err := tensor.CheckFactors(x, factors, tensor.AllModes)
	if err != nil {
		return nil, err
	}
	lay, err := dist.NewStationary(x.Dims(), R, shape)
	if err != nil {
		return nil, err
	}
	N, P := x.Order(), lay.P()
	net := simnet.New(P)
	outShards := make([][][]float64, P) // [rank][mode]
	localFlops := make([]int64, P)
	err = net.Run(func(rank int) error {
		r := NewRank(lay, net, rank, x)

		// Gather every factor block row once.
		gathered := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			gathered[k] = r.GatherShards(k, factors[k])
		}

		// All local MTTKRPs from one dimension-tree pass over the
		// block (the computation half of the multi-MTTKRP saving),
		// then one Reduce-Scatter per mode. Each simulated rank is
		// already its own goroutine, so the engine runs serially
		// within a rank.
		local := dimtree.AllModesWorkers(r.Block, gathered, 1)
		outShards[rank] = make([][]float64, N)
		for n := 0; n < N; n++ {
			outShards[rank][n] = r.ScatterShards(n, local.B[n])
		}
		localFlops[rank] = local.Flops
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &AllModesResult{
		B:          make([]*tensor.Matrix, N),
		Stats:      net.AllStats(),
		LocalFlops: localFlops,
	}
	for n := 0; n < N; n++ {
		shards := make([][]float64, P)
		for r := 0; r < P; r++ {
			shards[r] = outShards[r][n]
		}
		res.B[n] = assemble(lay, n, shards)
	}
	return res, nil
}
