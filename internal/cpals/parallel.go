package cpals

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/dimtree"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/par"
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
func (r *ParallelResult) MaxMTTKRPWords() int64 { return slices.Max(r.MTTKRPWords) }

// MaxOtherWords returns the per-rank maximum of non-MTTKRP words.
func (r *ParallelResult) MaxOtherWords() int64 { return slices.Max(r.OtherWords) }

// DecomposeParallel runs CP-ALS on the simulated distributed machine
// with an N-way processor grid (the Algorithm 3 data distribution,
// with factor block rows partitioned by whole rows so Gram matrices
// can be summed locally). Each tensor dimension must be at least
// prod(shape) so that every rank owns at least one row of every
// factor. Options.Normalize is not supported and returns an error.
//
// The tensor stays put, and every collective moves only what changed
// since it last ran. Each rank keeps, for every mode k, the block row
// of U_k that its mode-k hyperslice shares. It gathers that block row
// once before the first sweep (except U_0's: mode 0 is solved first)
// and again right after each update of U_k; nothing else is gathered.
// The Gram of U_k rides on that regather: each rank takes the Gram of
// its block row and all-reduces it over its mode-k fiber, the P_k
// ranks whose block rows partition U_k. Every fiber sums the same
// block-row Grams in the same ring order, so all ranks hold bitwise
// the same Grams and fits. Each rank walks DecomposeTree's dimension
// tree on its own block, contracting the block twice per sweep.
//
// Per rank on a balanced grid (I_k = I, P_k = p, hyperslice size
// q = P/p, owned shard w = (I/P)·R words, S sweeps), the MTTKRP
// collectives move (N-1+2NS)·2(q-1)·w words, the N-1+NS Gram
// All-Reduces run over p ranks each, and the rank sends
// 2(P-1) + (N-1+NS)(q-1+2(p-1)) + S(N(q-1)+2(P-1)) messages.
func DecomposeParallel(x *tensor.Dense, shape []int, opts Options) (*ParallelResult, error) {
	ranks, net, err := runParallel(x, shape, opts)
	if err != nil {
		return nil, err
	}
	// Assemble the global model from owned rows.
	factors := make([]*tensor.Matrix, x.Order())
	for k := range factors {
		factors[k] = tensor.NewMatrix(x.Dim(k), opts.R)
		for _, r := range ranks {
			lo, _ := r.OwnRows(k)
			factors[k].SetBlock(lo, 0, r.own[k])
		}
	}
	fits := ranks[0].fits
	trace := make([]TraceEntry, len(fits))
	for i, f := range fits {
		trace[i] = TraceEntry{Iter: i, Fit: f}
	}
	res := &ParallelResult{
		Model:       &Model{Factors: factors, Fit: fits[len(fits)-1]},
		Trace:       trace,
		MTTKRPWords: make([]int64, len(ranks)),
		OtherWords:  make([]int64, len(ranks)),
	}
	for i, r := range ranks {
		res.MTTKRPWords[i] = r.mttkrpWords
		res.OtherWords[i] = net.RankStats(i).Words() - r.mttkrpWords
	}
	return res, nil
}

// runParallel checks DecomposeParallel's arguments and runs every rank
// to the end of its sweeps, returning the ranks' final states and the
// network that counted their traffic.
func runParallel(x *tensor.Dense, shape []int, opts Options) ([]*cpRank, *simnet.Network, error) {
	if err := opts.check(x); err != nil {
		return nil, nil, err
	}
	if opts.Normalize {
		return nil, nil, fmt.Errorf("cpals: DecomposeParallel does not support Normalize")
	}
	lay, err := dist.NewStationary(x.Dims(), opts.R, shape)
	if err != nil {
		return nil, nil, err
	}
	if err := lay.CheckRowShards(); err != nil {
		return nil, nil, err
	}
	net := simnet.New(lay.P())

	// The same deterministic initial factors as the sequential solver;
	// each rank copies out the rows it owns.
	global := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	ranks := make([]*cpRank, lay.P())
	err = net.Run(func(rank int) error {
		r := newCPRank(par.NewRank(lay, net, rank, x), global)
		ranks[rank] = r
		return r.run(opts)
	})
	if err != nil {
		return nil, nil, err
	}
	return ranks, net, nil
}

// cpRank is one simulated rank of a DecomposeParallel run: its block
// and communicators, and the solver state it keeps for the run.
type cpRank struct {
	*par.Rank

	fibers []*comm.Comm     // fibers[k]: the rank's mode-k fiber
	own    []*tensor.Matrix // own[k]: the rows of U_k this rank owns and solves for
	rows   []*tensor.Matrix // rows[k]: U_k's block row, gathered over Slices[k]
	grams  []*tensor.Matrix // grams[k]: U_k's Gram, summed over fibers[k]
	bs     []*tensor.Matrix // bs[n]: this block's contribution to B(n)'s block row
	local  *tensor.Matrix   // the block row's own Gram before the sum
	v      *tensor.Matrix   // V of the mode being solved; the model norm's scratch

	fits        []float64
	mttkrpWords int64 // words moved by gathers and reduce-scatters
}

// newCPRank copies the rank's owned rows out of the initial factors
// and builds its fiber communicators and buffers, all once for the
// run.
func newCPRank(rank *par.Rank, global []*tensor.Matrix) *cpRank {
	N := len(global)
	r := &cpRank{
		Rank:   rank,
		fibers: make([]*comm.Comm, N),
		own:    make([]*tensor.Matrix, N),
		rows:   make([]*tensor.Matrix, N),
		grams:  make([]*tensor.Matrix, N),
		bs:     make([]*tensor.Matrix, N),
	}
	R := global[0].Cols()
	for k, u := range global {
		r.fibers[k] = r.Fiber(k)
		r.own[k] = u.RowBlock(r.OwnRows(k))
		blo, bhi := r.BlockRows(k)
		r.rows[k] = tensor.NewMatrix(bhi-blo, R)
		r.bs[k] = tensor.NewMatrix(bhi-blo, R)
		r.grams[k] = tensor.NewMatrix(R, R)
	}
	r.local, r.v = tensor.NewMatrix(R, R), tensor.NewMatrix(R, R)
	return r
}

// run is the rank's body: the norm, the initial refreshes, then the
// sweeps, each appending its fit.
func (r *cpRank) run(opts Options) error {
	N := len(r.own)
	// Every rank gets the same norm, so on a zero or non-finite norm
	// all ranks return together.
	normX := r.Norm()
	if err := checkNorm(normX); err != nil {
		return err
	}

	// Workers = 1: each simulated rank already runs on its own
	// goroutine.
	eng := dimtree.GetEngine()
	eng.Workers = 1
	defer dimtree.PutEngine(eng)

	for k := 1; k < N; k++ {
		r.refresh(k)
	}
	// Each sweep walks the dimension tree on the rank's block. One
	// local span covers the contractions that form each B(n); the leaf
	// ends it, reduce-scatters B(n), solves the owned rows and
	// refreshes U_n, and opens the next mode's span.
	var span obs.Span
	var lastB *tensor.Matrix
	leaf := func(n int) error {
		span.Stop()
		before := r.Words()
		b := r.ScatterRows(n, r.bs[n])
		r.mttkrpWords += r.Words() - before

		// Normal equations (replicated) and row-wise solve.
		hadamardGrams(r.v, r.grams, n)
		if err := solveFactor(r.own[n], r.v, b); err != nil {
			return fmt.Errorf("cpals: rank %d mode %d: %w", r.ID, n, err)
		}
		r.refresh(n)
		lastB = b
		if n < N-1 {
			span = obs.StartRank(r.ID, obs.PhaseLocal)
		}
		return nil
	}
	prevFit := math.Inf(-1)
	for it := 0; it < opts.MaxIters; it++ {
		span = obs.StartRank(r.ID, obs.PhaseLocal)
		if _, err := eng.Sweep(r.bs, r.Block, r.rows, opts.R, leaf); err != nil {
			return err
		}
		// Fit: global inner product plus the replicated Gram identity.
		inner := r.World.AllReduce([]float64{linalg.Dot(lastB, r.own[N-1])})[0]
		fit := computeFit(normX, inner, r.v, r.grams)
		r.fits = append(r.fits, fit)
		if fit-prevFit < opts.Tol && it > 0 {
			break
		}
		prevFit = fit
	}
	return nil
}

// refresh brings rows[k] and grams[k] up to date with own[k]. It
// all-gathers the hyperslice's owned rows straight into the block row,
// then sums the block row's Gram over the mode-k fiber.
func (r *cpRank) refresh(k int) {
	before := r.Words()
	r.GatherRows(k, r.own[k], r.rows[k])
	r.mttkrpWords += r.Words() - before
	linalg.MatMulTransAInto(r.local, r.rows[k], r.rows[k])
	copy(r.grams[k].Data(), r.fibers[k].AllReduce(r.local.Data()))
}
