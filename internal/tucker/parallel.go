package tucker

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/par"
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
	// counts every All-Reduce: the projected tensors Y (the multi-TTM
	// results), each sweep's core and the norm. Both are per rank,
	// sends+receives, and together they are the rank's whole traffic.
	GatherWords []int64
	ReduceWords []int64
}

// MaxGatherWords returns the per-rank maximum of gather words.
func (r *ParallelResult) MaxGatherWords() int64 { return maxOf(r.GatherWords) }

// MaxReduceWords returns the per-rank maximum of All-Reduce words.
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
	if opts.MaxIters < 0 {
		return nil, fmt.Errorf("tucker: MaxIters %d", opts.MaxIters)
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 25
	}
	if opts.Tol == 0 { //repro:bitwise unset-option sentinel, exact
		opts.Tol = 1e-8
	}
	// Factors are split by row shards, which take their column counts
	// from the matrices, so the layout's R is only a placeholder.
	lay, err := dist.NewStationary(x.Dims(), 1, shape)
	if err != nil {
		return nil, err
	}
	if err := lay.CheckRowShards(); err != nil {
		return nil, err
	}
	// Deterministic orthonormal initial factors (replicated; each rank
	// copies out the rows it owns).
	initFull, err := InitFactors(x.Dims(), opts.Ranks, seed)
	if err != nil {
		return nil, err
	}

	P := lay.P()
	net := simnet.New(P)
	gatherWords := make([]int64, P)
	reduceWords := make([]int64, P)
	fits := make([][]float64, P)
	finalFact := make([][]*tensor.Matrix, P)
	finalCore := make([][]float64, P)
	err = net.Run(func(rank int) error {
		r := par.NewRank(lay, net, rank, x)
		// Per-rank engine workspace; local chains and Grams run
		// single-worker (the ranks already are the parallelism).
		ws := ttm.GetWorkspace()
		defer ttm.PutWorkspace(ws)

		// Every rank gets the same norm, so on a zero or non-finite
		// norm all ranks return together.
		normX := r.Norm()
		if err := checkNorm(normX); err != nil {
			return err
		}

		own := make([]*tensor.Matrix, N)        // own[k]: the rows of U_k this rank owns
		gathered := make([]*tensor.Matrix, N)   // gathered[k]: U_k's block row
		replicated := make([]*tensor.Matrix, N) // replicated[k]: the whole U_k after its update
		for k := range own {
			own[k] = initFull[k].RowBlock(r.OwnRows(k))
			lo, hi := r.BlockRows(k)
			gathered[k] = tensor.NewMatrix(hi-lo, opts.Ranks[k])
		}
		prevFit := math.Inf(-1)
		for it := 0; it < opts.MaxIters; it++ {
			for k := 0; k < N; k++ {
				before := r.Words()
				// Gather the block rows of every factor except mode
				// k's (exactly the Algorithm 3 gather pattern).
				for j := 0; j < N; j++ {
					if j != k {
						r.GatherRows(j, own[j], gathered[j])
					}
				}
				gatherWords[rank] += r.Words() - before

				// Local multi-TTM over all modes but k: partial
				// projection of the local block, via the engine's
				// greedy-ordered chain. The sequential solver shares
				// its projections on a dimension tree, whose
				// contraction order can differ from the chain's, so a
				// P = 1 run matches it to rounding (bitwise at order 2,
				// where the tree runs the chains' contractions).
				z := ttm.ChainWorkers(r.Block, gathered, k, 1)
				// Embed into the full Y (I_k x prod R_j) and All-Reduce.
				lo, _ := r.BlockRows(k)
				y := embedPartial(z, k, x.Dim(k), lo)
				full := r.World.AllReduce(y.Data())
				yFull := tensor.NewDenseFromData(full, y.Dims()...)

				// Replicated small eigenproblem; keep only owned rows.
				gram := tensor.NewMatrix(x.Dim(k), x.Dim(k))
				ttm.GramInto(gram, yFull, k, 1, ws)
				u, err := linalg.LeadingEigvecs(gram, opts.Ranks[k])
				if err != nil {
					return fmt.Errorf("tucker: rank %d mode %d: %w", rank, k, err)
				}
				own[k] = u.RowBlock(r.OwnRows(k))
				replicated[k] = u
			}
			// Fit from the replicated factors (all N are replicated
			// once the sweep completes); the local core partial
			// contracts each mode's *local* factor rows with one
			// engine chain.
			localFacts := make([]*tensor.Matrix, N)
			for j := 0; j < N; j++ {
				localFacts[j] = replicated[j].RowBlock(r.BlockRows(j))
			}
			core := ttm.ChainWorkers(r.Block, localFacts, -1, 1)
			// Core partials sum across all processors.
			coreFull := r.World.AllReduce(core.Data())
			fit := fitFromCore(normX, coreFull, x.Dims())
			fits[rank] = append(fits[rank], fit)
			finalCore[rank] = coreFull
			if fit-prevFit < opts.Tol && it > 0 {
				break
			}
			prevFit = fit
		}
		finalFact[rank] = replicated
		reduceWords[rank] = r.Words() - gatherWords[rank]
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

// embedPartial places a local partial projection (whose mode-k extent
// is the local block's S_pk, starting at row rlo) into a zero tensor
// with full I_k extent, ready for a global All-Reduce.
func embedPartial(z *tensor.Dense, k, Ik, rlo int) *tensor.Dense {
	dims := z.Dims()
	outDims := append([]int(nil), dims...)
	outDims[k] = Ik
	out := tensor.NewDense(outDims...)
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
