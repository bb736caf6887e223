package cpals

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/comm"
	"repro/internal/dimtree"
	"repro/internal/dist"
	"repro/internal/grid"
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
// the same Grams and fits. Each rank walks DecomposeTree's prefix
// schedule on its own block, contracting the block twice per sweep.
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
	N, R := x.Order(), ranks[0].R
	factors := make([]*tensor.Matrix, N)
	for k := 0; k < N; k++ {
		factors[k] = tensor.NewMatrix(x.Dim(k), R)
		for _, r := range ranks {
			factors[k].SetBlock(r.lo[k], 0, r.own[k])
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
	N := x.Order()
	if len(shape) != N {
		return nil, nil, fmt.Errorf("cpals: grid shape %v for order-%d tensor", shape, N)
	}
	g := grid.New(shape...)
	P := g.P()
	for k, d := range x.Dims() {
		if d < P {
			return nil, nil, fmt.Errorf("cpals: dimension %d (mode %d) smaller than P = %d", d, k, P)
		}
	}
	lay := dist.NewStationary(x.Dims(), opts.R, g)
	net := simnet.New(P)

	// The same deterministic initial factors as the sequential solver;
	// each rank copies out the rows it owns.
	global := tensor.RandomFactors(opts.Seed, x.Dims(), opts.R)
	ranks := make([]*cpRank, P)
	err := net.Run(func(rank int) error {
		r := newCPRank(net, lay, rank, x, global)
		ranks[rank] = r
		return r.run(opts)
	})
	if err != nil {
		return nil, nil, err
	}
	return ranks, net, nil
}

// enginePool lends each rank of a DecomposeParallel run its
// dimension-tree engine. An engine put back keeps its grown KRP panels
// for the next run; the pool drops it at garbage collection.
var enginePool = sync.Pool{New: func() any { return dimtree.NewEngine(1) }}

// cpRank is one simulated rank of a DecomposeParallel run.
type cpRank struct {
	net   *simnet.Network
	rank  int
	R     int
	local *tensor.Dense // this rank's block of the tensor

	world  *comm.Comm
	slices []*comm.Comm // slices[k]: the mode-k hyperslice, the ranks sharing grid coordinate k
	fibers []*comm.Comm // fibers[k]: the P_k ranks sharing every grid coordinate but the k-th

	lo    []int            // lo[k]: the first row of U_k this rank owns
	own   []*tensor.Matrix // own[k]: the rows of U_k this rank owns and solves for
	rows  []*tensor.Matrix // rows[k]: U_k's block row, gathered over slices[k]
	grams []*tensor.Matrix // grams[k]: U_k's Gram, summed over fibers[k]
	bs    []*tensor.Matrix // bs[n]: this block's contribution to B(n)'s block row

	fits        []float64
	mttkrpWords int64 // words moved by gathers and reduce-scatters
}

// newCPRank cuts the rank's block of x, copies its owned rows out of
// the initial factors, and builds its communicators and buffers, all
// once for the run.
func newCPRank(net *simnet.Network, lay dist.Stationary, rank int, x *tensor.Dense, global []*tensor.Matrix) *cpRank {
	g := lay.G
	N := g.Dims()
	coords := g.Coords(rank)
	r := &cpRank{
		net:    net,
		rank:   rank,
		R:      lay.R,
		local:  lay.LocalTensor(coords, x),
		world:  comm.New(net, worldRanks(g.P()), rank),
		slices: make([]*comm.Comm, N),
		fibers: make([]*comm.Comm, N),
		lo:     make([]int, N),
		own:    make([]*tensor.Matrix, N),
		rows:   make([]*tensor.Matrix, N),
		grams:  make([]*tensor.Matrix, N),
		bs:     make([]*tensor.Matrix, N),
	}
	for k := 0; k < N; k++ {
		slice := lay.HyperSlice(k, coords)
		r.slices[k] = comm.New(net, slice, rank)
		r.fibers[k] = comm.New(net, fiber(g, k, coords), rank)
		blo, bhi := lay.FactorRowRange(k, coords[k])
		lo, hi := grid.Part(bhi-blo, len(slice), dist.IndexIn(slice, rank))
		r.lo[k] = blo + lo
		r.own[k] = global[k].RowBlock(blo+lo, blo+hi)
		r.rows[k] = tensor.NewMatrix(bhi-blo, lay.R)
		r.bs[k] = tensor.NewMatrix(bhi-blo, lay.R)
	}
	return r
}

// run is the rank's body: the norm, the initial refreshes, then the
// sweeps, each appending its fit.
func (r *cpRank) run(opts Options) error {
	N := len(r.own)
	// ||X||^2 via one All-Reduce of local sums of squares. Every rank
	// gets the same sum, so on a zero or non-finite norm all ranks
	// return together.
	localSq := 0.0
	for _, v := range r.local.Data() {
		localSq += v * v
	}
	normX := math.Sqrt(r.world.AllReduce([]float64{localSq})[0])
	if err := checkNorm(normX); err != nil {
		return err
	}

	// Workers = 1: each simulated rank already runs on its own
	// goroutine.
	eng := enginePool.Get().(*dimtree.Engine)
	eng.Workers = 1
	defer enginePool.Put(eng)
	tree := newPrefixTree(eng, r.local, r.R)

	for k := 1; k < N; k++ {
		r.refresh(k)
	}
	prevFit := math.Inf(-1)
	for it := 0; it < opts.MaxIters; it++ {
		var lastB *tensor.Matrix
		for n := 0; n < N; n++ {
			span := obs.StartRank(r.rank, obs.PhaseLocal)
			tree.mttkrp(r.bs[n], r.rows, n)
			span.Stop()
			before := r.words()
			b := reduceScatterRows(r.slices[n], r.bs[n], r.R)
			r.mttkrpWords += r.words() - before

			// Normal equations (replicated) and row-wise solve.
			v := hadamardGrams(r.grams, n, r.R)
			if err := solveFactor(r.own[n], v, b); err != nil {
				return fmt.Errorf("cpals: rank %d mode %d: %w", r.rank, n, err)
			}
			r.refresh(n)
			span = obs.StartRank(r.rank, obs.PhaseLocal)
			tree.advance(r.rows, n)
			span.Stop()
			lastB = b
		}
		// Fit: global inner product plus the replicated Gram identity.
		inner := r.world.AllReduce([]float64{linalg.Dot(lastB, r.own[N-1])})[0]
		fit := computeFit(normX, inner, r.grams)
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
	before := r.words()
	dst := r.rows[k]
	at := 0
	for _, b := range r.slices[k].AllGatherV(r.own[k].Data()) {
		n := len(b) / r.R
		for j := 0; j < r.R; j++ {
			copy(dst.Col(j)[at:at+n], b[j*n:(j+1)*n])
		}
		at += n
	}
	r.mttkrpWords += r.words() - before
	r.grams[k] = allReduceGram(r.fibers[k], dst, r.R)
}

// words returns the words this rank has sent and received so far.
func (r *cpRank) words() int64 { return r.net.RankStats(r.rank).Words() }

func worldRanks(P int) []int {
	out := make([]int, P)
	for i := range out {
		out[i] = i
	}
	return out
}

// fiber returns the mode-k fiber through coords: the ranks that share
// every grid coordinate but the k-th, in ascending coordinate k.
func fiber(g *grid.Grid, k int, coords []int) []int {
	fixed := make([]int, 0, g.Dims()-1)
	for d := 0; d < g.Dims(); d++ {
		if d != k {
			fixed = append(fixed, d)
		}
	}
	return g.Slice(fixed, coords)
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

// allReduceGram sums each member's Gram of its rows over c into the
// Gram of all their rows.
func allReduceGram(c *comm.Comm, rows *tensor.Matrix, R int) *tensor.Matrix {
	local := linalg.Gram(rows)
	return tensor.NewMatrixFromData(c.AllReduce(local.Data()), R, R)
}
