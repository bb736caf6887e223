package tucker

import (
	"fmt"

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

	// Traffic is every rank's traffic: the words and messages of every
	// All-Reduce, the norm's and the projected tensors Y's (the
	// multi-TTM results). Its MaxWords is the per-processor figure the
	// Multi-TTM parallel lower bounds apply to.
	simnet.Traffic
}

// DecomposeParallel runs HOOI on the simulated distributed machine
// with the stationary-tensor distribution of the MTTKRP algorithms
// (the layout of the paper's reference [22], parallel Tucker
// compression): the tensor stays put in blocks on an N-way grid, and
// each rank runs the sequential solver's sweep body on its block.
// Every rank holds every factor whole — the initial factors are
// replicated and every update is the same eigensolve of the same
// all-reduced projection, which the ring hands every rank bitwise — so
// no factor row moves. Each rank walks ttm.TreeInto over its block
// with the block rows of the factors; each leaf embeds the block's
// partial projection in the full I_k x prod_{j != k} R_j tensor,
// All-Reduces it over all ranks, and replaces the mode's factor with
// the leading eigenvectors of its Gram. The core is one TTM of the
// last all-reduced projection, as in Decompose, so a sweep moves only
// its N projections.
//
// The factors start from opts.Init, or from InitFactors(seed) when
// Init is nil, so a sequential run with the same Init reproduces the
// fit trace to rounding, and at P = 1 its factors and core bitwise.
// Every tensor dimension must be at least prod(shape). The model is
// rank 0's: the replicated factors, the last sweep's core and its fit,
// so no step outside the simulated machine touches X.
func DecomposeParallel(x *tensor.Dense, shape []int, opts Options, seed int64) (*ParallelResult, error) {
	N := x.Order()
	opts, err := opts.resolve(x)
	if err != nil {
		return nil, err
	}
	// Factors are replicated, so the layout's R is only a placeholder.
	lay, err := dist.NewStationary(x.Dims(), 1, shape)
	if err != nil {
		return nil, err
	}
	if err := lay.CheckRowShards(); err != nil {
		return nil, err
	}
	init := opts.Init
	if init == nil {
		if init, err = InitFactors(x.Dims(), opts.Ranks, seed); err != nil {
			return nil, err
		}
	}

	net := simnet.New(lay.P())
	var model *Model
	var trace []TraceEntry
	err = net.Run(func(rank int) error {
		r := par.NewRank(lay, net, rank, x)
		// Per-rank engine workspace; contractions and Grams run
		// single-worker (the ranks already are the parallelism).
		ws := ttm.GetWorkspace()
		defer ttm.PutWorkspace(ws)

		// Every rank gets the same norm, so on a zero or non-finite
		// norm all ranks return together.
		normX := r.Norm()
		if err := checkNorm(normX); err != nil {
			return err
		}

		// factors[k] is the whole U_k, rows[k] its block row, which the
		// walk over the block reads.
		factors := append([]*tensor.Matrix(nil), init...)
		rows := make([]*tensor.Matrix, N)
		for k, u := range factors {
			rows[k] = u.RowBlock(r.BlockRows(k))
		}
		grams := gramViews(x.Dims())
		ys := ttm.ProjectionViews(r.Block.Dims(), opts.Ranks)
		core := tensor.NewDense(opts.Ranks...)
		var last *tensor.Dense
		update := func(k int, z *tensor.Dense) error {
			lo, hi := r.BlockRows(k)
			y := embedPartial(z, k, x.Dim(k), lo)
			y = tensor.NewDenseFromData(r.World.AllReduce(y.Data()), y.Dims()...)
			u, err := modeFactor(grams[k], y, k, opts.Ranks[k], 1, ws)
			if err != nil {
				return fmt.Errorf("tucker: rank %d mode %d: %w", rank, k, err)
			}
			factors[k], rows[k] = u, u.RowBlock(lo, hi)
			last = y
			return nil
		}
		tr, err := hooi(opts, normX, x.Dims(), factors, core, 1, func() (*tensor.Dense, error) {
			err := ttm.TreeInto(ys, r.Block, rows, 1, ws, update)
			return last, err
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			model = &Model{Core: core, Factors: factors, Fit: tr[len(tr)-1].Fit}
			trace = tr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ParallelResult{Model: model, Trace: trace, Traffic: net.AllStats()}, nil
}

// InitFactors returns deterministic QR-orthonormalized random factors
// for the given dims and ranks: DecomposeParallel's start when
// Options.Init is nil, and the shared Init of the sequential/parallel
// parity tests. It rejects the ranks the solvers reject.
func InitFactors(dims, ranks []int, seed int64) ([]*tensor.Matrix, error) {
	if err := checkRanks(dims, ranks); err != nil {
		return nil, err
	}
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
