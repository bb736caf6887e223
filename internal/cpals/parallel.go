package cpals

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// ParallelResult extends Model with the distributed run's
// communication accounting.
type ParallelResult struct {
	Model *Model
	Trace []TraceEntry

	// MTTKRPWords and OtherWords are, per rank, the words (sent +
	// received) spent in MTTKRP collectives (factor All-Gathers and
	// output Reduce-Scatters) versus everything else (Gram All-Reduces
	// and fit scalars). The paper's premise is that the first column
	// dominates.
	MTTKRPWords []int64
	OtherWords  []int64
}

// MaxMTTKRPWords returns the per-rank maximum of MTTKRP words.
func (r *ParallelResult) MaxMTTKRPWords() int64 { return maxOf(r.MTTKRPWords) }

// MaxOtherWords returns the per-rank maximum of non-MTTKRP words.
func (r *ParallelResult) MaxOtherWords() int64 { return maxOf(r.OtherWords) }

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// DecomposeParallel runs CP-ALS on the simulated distributed machine
// with an N-way processor grid (the Algorithm 3 data distribution,
// with factor block rows partitioned by whole rows so Gram matrices
// can be summed locally). Each tensor dimension must be at least
// prod(shape) so that every rank owns at least one row of every
// factor. Options.Normalize is not supported and returns an error.
func DecomposeParallel(x *tensor.Dense, shape []int, opts Options) (*ParallelResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if opts.Normalize {
		return nil, fmt.Errorf("cpals: DecomposeParallel does not support Normalize")
	}
	N := x.Order()
	if len(shape) != N {
		return nil, fmt.Errorf("cpals: grid shape %v for order-%d tensor", shape, N)
	}
	g := grid.New(shape...)
	P := g.P()
	for k, d := range x.Dims() {
		if d < P {
			return nil, fmt.Errorf("cpals: dimension %d (mode %d) smaller than P = %d", d, k, P)
		}
	}
	lay := dist.NewStationary(x.Dims(), opts.R, g)
	net := simnet.New(P)

	// Driver-side initialization: same deterministic factors as the
	// sequential solver, sharded by rows.
	global := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	localX := make([]*tensor.Dense, P)
	ownRows := make([][][2]int, P) // [rank][mode] global row range
	ownFact := make([][]*tensor.Matrix, P)
	for r := 0; r < P; r++ {
		coords := g.Coords(r)
		localX[r] = lay.LocalTensor(coords, x)
		ownRows[r] = make([][2]int, N)
		ownFact[r] = make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			lo, hi := ownRowRange(lay, g, k, coords, r)
			ownRows[r][k] = [2]int{lo, hi}
			ownFact[r][k] = global[k].RowBlock(lo, hi)
		}
	}

	mttkrpWords := make([]int64, P)
	fits := make([][]float64, P)
	finalFact := make([][]*tensor.Matrix, P)
	err := net.Run(func(rank int) error {
		coords := g.Coords(rank)
		world := comm.New(net, worldRanks(P), rank)
		factors := ownFact[rank]

		// normX^2 via one All-Reduce of local sums of squares.
		localSq := 0.0
		for _, v := range localX[rank].Data() {
			localSq += v * v
		}
		normX := math.Sqrt(world.AllReduce([]float64{localSq})[0])

		// Initial Grams: local contribution + All-Reduce.
		grams := make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			grams[k] = allReduceGram(world, factors[k], opts.R)
		}

		prevFit := math.Inf(-1)
		for it := 0; it < opts.MaxIters; it++ {
			var lastB *tensor.Matrix
			for n := 0; n < N; n++ {
				before := net.RankStats(rank).Words()

				// Gather factor block rows within hyperslices.
				gathered := make([]*tensor.Matrix, N)
				for k := 0; k < N; k++ {
					if k == n {
						continue
					}
					ck := comm.New(net, lay.HyperSlice(k, coords), rank)
					gathered[k] = gatherRowBlocks(ck, factors[k], opts.R)
				}
				// Local MTTKRP (workers=1: each simulated rank already
				// runs on its own goroutine) and row-wise Reduce-Scatter.
				span := obs.StartRank(rank, obs.PhaseLocal)
				c := kernel.FastWorkers(localX[rank], gathered, n, 1)
				span.Stop()
				cn := comm.New(net, lay.HyperSlice(n, coords), rank)
				b := reduceScatterRows(cn, c, opts.R)
				mttkrpWords[rank] += net.RankStats(rank).Words() - before

				// Normal equations (replicated) and row-wise solve.
				v := hadamardGrams(grams, n, opts.R)
				an, err := solveFactor(v, b)
				if err != nil {
					return fmt.Errorf("cpals: rank %d mode %d: %w", rank, n, err)
				}
				factors[n] = an
				grams[n] = allReduceGram(world, an, opts.R)
				lastB = b
			}
			// Fit: global inner product plus replicated Gram identity.
			inner := world.AllReduce([]float64{linalg.Dot(lastB, factors[N-1])})[0]
			all := tensor.NewMatrix(opts.R, opts.R)
			all.Fill(1)
			for _, gm := range grams {
				all = tensor.Hadamard(all, gm)
			}
			resid2 := normX*normX - 2*inner + linalg.SumAll(all)
			if resid2 < 0 {
				resid2 = 0
			}
			fit := 1 - math.Sqrt(resid2)/normX
			fits[rank] = append(fits[rank], fit)
			if fit-prevFit < opts.Tol && it > 0 {
				break
			}
			prevFit = fit
		}
		finalFact[rank] = factors
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble the global model from owned rows.
	factors := make([]*tensor.Matrix, N)
	for k := 0; k < N; k++ {
		factors[k] = tensor.NewMatrix(x.Dim(k), opts.R)
		for r := 0; r < P; r++ {
			factors[k].SetBlock(ownRows[r][k][0], 0, finalFact[r][k])
		}
	}
	trace := make([]TraceEntry, len(fits[0]))
	for i, f := range fits[0] {
		trace[i] = TraceEntry{Iter: i, Fit: f}
	}
	res := &ParallelResult{
		Model:       &Model{Factors: factors, Fit: fits[0][len(fits[0])-1]},
		Trace:       trace,
		MTTKRPWords: mttkrpWords,
		OtherWords:  make([]int64, P),
	}
	for r := 0; r < P; r++ {
		res.OtherWords[r] = net.RankStats(r).Words() - mttkrpWords[r]
	}
	return res, nil
}

func worldRanks(P int) []int {
	out := make([]int, P)
	for i := range out {
		out[i] = i
	}
	return out
}

// ownRowRange returns the global rows of factor k owned by the rank at
// coords: its hyperslice-position's part of the block row.
func ownRowRange(lay dist.Stationary, g *grid.Grid, k int, coords []int, rank int) (int, int) {
	slice := lay.HyperSlice(k, coords)
	idx := dist.IndexIn(slice, rank)
	blo, bhi := lay.FactorRowRange(k, coords[k])
	lo, hi := grid.Part(bhi-blo, len(slice), idx)
	return blo + lo, blo + hi
}

// gatherRowBlocks All-Gathers per-rank row shards (flattened
// column-major) and stacks them into the hyperslice's block-row
// matrix.
func gatherRowBlocks(c *comm.Comm, mine *tensor.Matrix, R int) *tensor.Matrix {
	blocks := c.AllGatherV(mine.Data())
	rows := 0
	for _, b := range blocks {
		rows += len(b) / R
	}
	out := tensor.NewMatrix(rows, R)
	at := 0
	for _, b := range blocks {
		br := len(b) / R
		out.SetBlock(at, 0, tensor.NewMatrixFromData(b, br, R))
		at += br
	}
	return out
}

// reduceScatterRows Reduce-Scatters the local contribution C by row
// blocks: hyperslice member j receives the summed rows Part(rows,q,j).
func reduceScatterRows(c *comm.Comm, contrib *tensor.Matrix, R int) *tensor.Matrix {
	q := c.Size()
	rows := contrib.Rows()
	chunks := make([][]float64, q)
	for j := 0; j < q; j++ {
		lo, hi := grid.Part(rows, q, j)
		chunks[j] = contrib.Block(lo, hi, 0, R).Data()
	}
	ownLo, ownHi := grid.Part(rows, q, c.Rank())
	own := c.ReduceScatterV(chunks)
	return tensor.NewMatrixFromData(own, ownHi-ownLo, R)
}

// allReduceGram sums each rank's local Gram contribution into the
// replicated global Gram matrix.
func allReduceGram(world *comm.Comm, rows *tensor.Matrix, R int) *tensor.Matrix {
	local := linalg.Gram(rows)
	return tensor.NewMatrixFromData(world.AllReduce(local.Data()), R, R)
}
