package par

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// ViaMatmul1D runs the Section VI-B comparator at small P: MTTKRP cast
// as the matrix multiplication X_(n) * KRP with a 1D (inner-dimension)
// parallelization — the optimal matmul regime when the contracted
// dimension J = I/I_n dominates, which is exactly the MTTKRP shape for
// small R.
//
// Each processor owns J/P columns of the matricized tensor and the
// matching J/P rows of the Khatri-Rao product (which, following the
// paper's generous assumption, is formed locally without any
// communication cost). It computes a full I_n x R partial product and
// the results are summed and distributed by a Reduce-Scatter over all
// P processors — communicating (P-1)/P * I_n * R words per processor
// each way, independent of P: the structure of the KRP is invisible to
// the matmul, which is the paper's core criticism.
func ViaMatmul1D(x *tensor.Dense, factors []*tensor.Matrix, n int, P int) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	if P < 1 {
		return nil, fmt.Errorf("par: P = %d", P)
	}
	xn := tensor.Unfold(x, n)
	krp := tensor.KRPAll(factors, n)
	J := xn.Cols()
	In := xn.Rows()
	if P > J {
		return nil, fmt.Errorf("par: P = %d exceeds contracted dimension J = %d", P, J)
	}
	net := simnet.New(P)

	// Driver-side distribution: column slab of X_(n), row slab of KRP.
	localX := make([]*tensor.Matrix, P)
	localK := make([]*tensor.Matrix, P)
	for r := 0; r < P; r++ {
		lo, hi := grid.Part(J, P, r)
		localX[r] = xn.Block(0, In, lo, hi)
		localK[r] = krp.Block(lo, hi, 0, R)
	}

	outShards := make([][]float64, P)
	res := &Result{
		Grid:        []int{P},
		GatherWords: make([]int64, P), // no input gathers in this scheme
		ReduceWords: make([]int64, P),
	}
	err = net.Run(func(rank int) error {
		// Local partial product: full I_n x R dense partial C.
		span := obs.StartRank(rank, obs.PhaseLocal)
		partial := linalg.MatMul(localX[rank], localK[rank])
		span.Stop()

		// Reduce-Scatter C across all processors.
		ranks := make([]int, P)
		for i := range ranks {
			ranks[i] = i
		}
		c := comm.New(net, ranks, rank)
		chunks := make([][]float64, P)
		for j := 0; j < P; j++ {
			lo, hi := grid.Part(In*R, P, j)
			chunks[j] = partial.Data()[lo:hi]
		}
		outShards[rank] = c.ReduceScatterV(chunks)
		res.ReduceWords[rank] = net.RankStats(rank).Words()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Traffic = net.AllStats()
	b := tensor.NewMatrix(In, R)
	for r := 0; r < P; r++ {
		lo, hi := grid.Part(In*R, P, r)
		copy(b.Data()[lo:hi], outShards[r])
	}
	res.B = b
	return res, nil
}
