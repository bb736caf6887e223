package tucker

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/ttm"
)

// ParallelResult is a distributed HOOI run with its communication
// accounting.
type ParallelResult struct {
	Model *Model
	Trace []TraceEntry

	// GatherWords counts factor block-row All-Gathers; ReduceWords
	// counts the All-Reduces of the projected tensors Y (the multi-TTM
	// results) — both per rank, sends+receives.
	GatherWords []int64
	ReduceWords []int64
}

// MaxGatherWords returns the per-rank maximum of gather words.
func (r *ParallelResult) MaxGatherWords() int64 { return maxOf(r.GatherWords) }

// MaxReduceWords returns the per-rank maximum of Y-reduce words.
func (r *ParallelResult) MaxReduceWords() int64 { return maxOf(r.ReduceWords) }

// MaxCommWords returns the maximum over ranks of total collective
// words (gathers plus reduces) — the per-processor figure the
// Multi-TTM parallel lower bounds apply to.
func (r *ParallelResult) MaxCommWords() int64 {
	var m int64
	for i := range r.GatherWords {
		if t := r.GatherWords[i] + r.ReduceWords[i]; t > m {
			m = t
		}
	}
	return m
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// DecomposeParallel runs HOOI on the simulated distributed machine
// with the stationary-tensor distribution of the MTTKRP algorithms
// (the layout of the paper's reference [22], parallel Tucker
// compression): the tensor stays put in blocks on an N-way grid,
// factor block rows are All-Gathered within hyperslices, local TTM
// chains produce partial projections, and the small projected tensors
// are summed with an All-Reduce. The eigensolves are replicated (their
// operands are tiny).
//
// Factors are initialized to QR-orthonormalized seeded random matrices
// (replicated deterministically), so a sequential run with the same
// Init reproduces the fit trace exactly. Every tensor dimension must
// be at least prod(shape). The model is rank 0's: the replicated
// factors, the last sweep's all-reduced core and its fit, so no step
// outside the simulated machine touches X.
func DecomposeParallel(x *tensor.Dense, shape []int, opts Options, seed int64) (*ParallelResult, error) {
	N := x.Order()
	if err := checkRanks(x, opts.Ranks); err != nil {
		return nil, err
	}
	if len(shape) != N {
		return nil, fmt.Errorf("tucker: grid shape %v for order-%d tensor", shape, N)
	}
	if opts.MaxIters < 0 {
		return nil, fmt.Errorf("tucker: MaxIters %d", opts.MaxIters)
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 25
	}
	if opts.Tol == 0 { //repro:bitwise unset-option sentinel, exact
		opts.Tol = 1e-8
	}
	g := grid.New(shape...)
	P := g.P()
	for k, d := range x.Dims() {
		if d < P {
			return nil, fmt.Errorf("tucker: dimension %d (mode %d) smaller than P = %d", d, k, P)
		}
	}
	// R is only used for the dist layout's factor sharding; Tucker
	// ranks vary per mode, so shard each factor by rows directly.
	lay := dist.NewStationary(x.Dims(), 1, g)
	net := simnet.New(P)

	// Deterministic orthonormal initial factors (replicated; sharded
	// by owned rows below).
	initFull, err := InitFactors(x.Dims(), opts.Ranks, seed)
	if err != nil {
		return nil, err
	}

	localX := make([]*tensor.Dense, P)
	ownRows := make([][][2]int, P)
	ownFact := make([][]*tensor.Matrix, P)
	for r := 0; r < P; r++ {
		coords := g.Coords(r)
		localX[r] = lay.LocalTensor(coords, x)
		ownRows[r] = make([][2]int, N)
		ownFact[r] = make([]*tensor.Matrix, N)
		for k := 0; k < N; k++ {
			lo, hi := ownRowRangePar(lay, g, k, coords, r)
			ownRows[r][k] = [2]int{lo, hi}
			ownFact[r][k] = initFull[k].RowBlock(lo, hi)
		}
	}

	gatherWords := make([]int64, P)
	reduceWords := make([]int64, P)
	fits := make([][]float64, P)
	finalFact := make([][]*tensor.Matrix, P)
	finalCore := make([][]float64, P)
	err = net.Run(func(rank int) error {
		coords := g.Coords(rank)
		world := comm.New(net, worldRanks(P), rank)
		factors := ownFact[rank]
		// Per-rank engine workspace; local chains and Grams run
		// single-worker (the ranks already are the parallelism).
		ws := ttm.GetWorkspace()
		defer ttm.PutWorkspace(ws)

		localSq := 0.0
		for _, v := range localX[rank].Data() {
			localSq += v * v
		}
		// Every rank gets the same sum, so on a zero or non-finite norm
		// all ranks return together.
		normX := math.Sqrt(world.AllReduce([]float64{localSq})[0])
		if err := checkNorm(normX); err != nil {
			return err
		}

		prevFit := math.Inf(-1)
		var replicated []*tensor.Matrix // full factors after each sweep
		for it := 0; it < opts.MaxIters; it++ {
			for k := 0; k < N; k++ {
				before := net.RankStats(rank).Words()
				// Gather the block rows of every factor except mode
				// k's (exactly the Algorithm 3 gather pattern).
				gathered := make([]*tensor.Matrix, N)
				for j := 0; j < N; j++ {
					if j == k {
						continue
					}
					cj := comm.New(net, lay.HyperSlice(j, coords), rank)
					blocks := cj.AllGatherV(factors[j].Data())
					rlo, rhi := lay.FactorRowRange(j, coords[j])
					gathered[j] = stackRows(blocks, rhi-rlo, factors[j].Cols())
				}
				gatherWords[rank] += net.RankStats(rank).Words() - before

				// Local multi-TTM over all modes but k: partial
				// projection of the local block, via the engine's
				// greedy-ordered chain. The sequential solver shares
				// its projections on a dimension tree, whose
				// contraction order can differ from the chain's, so a
				// P = 1 run matches it to rounding (bitwise at order 2,
				// where the tree runs the chains' contractions).
				before = net.RankStats(rank).Words()
				z := ttm.ChainWorkers(localX[rank], gathered, k, 1)
				// Embed into the full Y (I_k x prod R_j) and All-Reduce.
				y := embedPartial(z, k, x.Dim(k), lay, coords)
				full := world.AllReduce(y.Data())
				reduceWords[rank] += net.RankStats(rank).Words() - before
				yFull := tensor.NewDenseFromData(full, y.Dims()...)

				// Replicated small eigenproblem; keep only owned rows.
				gram := tensor.NewMatrix(x.Dim(k), x.Dim(k))
				ttm.GramInto(gram, yFull, k, 1, ws)
				u, err := linalg.LeadingEigvecs(gram, opts.Ranks[k])
				if err != nil {
					return fmt.Errorf("tucker: rank %d mode %d: %w", rank, k, err)
				}
				lo, hi := ownRows[rank][k][0], ownRows[rank][k][1]
				factors[k] = u.RowBlock(lo, hi)
				if replicated == nil {
					replicated = make([]*tensor.Matrix, N)
				}
				replicated[k] = u
			}
			// Fit from the replicated factors (all N are replicated
			// once the first sweep completes); the local core partial
			// contracts each mode's *local* factor rows with one
			// engine chain.
			localFacts := make([]*tensor.Matrix, N)
			for j := 0; j < N; j++ {
				rlo, rhi := lay.FactorRowRange(j, coords[j])
				localFacts[j] = mustReplicated(replicated, j).RowBlock(rlo, rhi)
			}
			core := ttm.ChainWorkers(localX[rank], localFacts, -1, 1)
			// Core partials sum across all processors.
			coreFull := world.AllReduce(core.Data())
			fit := fitFromCore(normX, coreFull, x.Dims())
			fits[rank] = append(fits[rank], fit)
			finalCore[rank] = coreFull
			if fit-prevFit < opts.Tol && it > 0 {
				break
			}
			prevFit = fit
		}
		finalFact[rank] = replicated
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble from rank 0's copies: the replicated factors, the last
	// sweep's all-reduced core, and the fit that core gave.
	trace := make([]TraceEntry, len(fits[0]))
	for i, f := range fits[0] {
		trace[i] = TraceEntry{Iter: i, Fit: f}
	}
	model := &Model{
		Core:    tensor.NewDenseFromData(finalCore[0], opts.Ranks...),
		Factors: finalFact[0],
		Fit:     trace[len(trace)-1].Fit,
	}
	return &ParallelResult{
		Model:       model,
		Trace:       trace,
		GatherWords: gatherWords,
		ReduceWords: reduceWords,
	}, nil
}

// InitFactors returns deterministic QR-orthonormalized random factors
// for the given dims and ranks (the shared initialization of the
// sequential/parallel parity tests).
func InitFactors(dims, ranks []int, seed int64) ([]*tensor.Matrix, error) {
	out := make([]*tensor.Matrix, len(dims))
	for k := range dims {
		raw := tensor.RandomMatrix(seed+int64(k)*131, dims[k], ranks[k])
		q, _, err := linalg.QR(raw)
		if err != nil {
			return nil, fmt.Errorf("tucker: init factor %d: %w", k, err)
		}
		out[k] = q
	}
	return out, nil
}

func worldRanks(P int) []int {
	out := make([]int, P)
	for i := range out {
		out[i] = i
	}
	return out
}

func ownRowRangePar(lay dist.Stationary, g *grid.Grid, k int, coords []int, rank int) (int, int) {
	slice := lay.HyperSlice(k, coords)
	idx := dist.IndexIn(slice, rank)
	blo, bhi := lay.FactorRowRange(k, coords[k])
	lo, hi := grid.Part(bhi-blo, len(slice), idx)
	return blo + lo, blo + hi
}

// stackRows reassembles row blocks gathered from a hyperslice into the
// block-row matrix (rows x cols).
func stackRows(blocks [][]float64, rows, cols int) *tensor.Matrix {
	out := tensor.NewMatrix(rows, cols)
	at := 0
	for _, b := range blocks {
		br := len(b) / cols
		if br == 0 {
			continue
		}
		out.SetBlock(at, 0, tensor.NewMatrixFromData(b, br, cols))
		at += br
	}
	return out
}

// embedPartial places a local partial projection (whose mode-k extent
// is the local block's S_pk) into a zero tensor with full I_k extent,
// ready for a global All-Reduce.
func embedPartial(z *tensor.Dense, k, Ik int, lay dist.Stationary, coords []int) *tensor.Dense {
	dims := z.Dims()
	outDims := append([]int(nil), dims...)
	outDims[k] = Ik
	out := tensor.NewDense(outDims...)
	rlo, _ := lay.FactorRowRange(k, coords[k])
	// Destination strides.
	strides := make([]int, len(outDims))
	acc := 1
	for j, d := range outDims {
		strides[j] = acc
		acc *= d
	}
	idx := make([]int, len(dims))
	outData := out.Data()
	for off := 0; off < z.Elems(); off++ {
		dst := 0
		for j := range dims {
			v := idx[j]
			if j == k {
				v += rlo
			}
			dst += v * strides[j]
		}
		outData[dst] = z.Data()[off]
		incIdx(idx, dims)
	}
	return out
}

func incIdx(idx, dims []int) {
	for k := range idx {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}

func mustReplicated(replicated []*tensor.Matrix, j int) *tensor.Matrix {
	if replicated == nil || replicated[j] == nil {
		panic("tucker: replicated factor missing (internal invariant)")
	}
	return replicated[j]
}
