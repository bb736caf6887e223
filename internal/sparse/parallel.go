package sparse

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// LocalEngine selects the per-rank local MTTKRP kernel of the
// owner-computes parallelization. The communication schedule — and
// therefore the measured volume — is identical for every engine; only
// the local compute differs.
type LocalEngine int

const (
	// EngineCSF runs each rank's local compute over a compressed
	// sparse fiber tree rooted at the output mode (the default).
	EngineCSF LocalEngine = iota
	// EngineCOO runs the naive per-nonzero COO loop.
	EngineCOO
)

// String returns the engine's flag spelling.
func (e LocalEngine) String() string {
	switch e {
	case EngineCSF:
		return "csf"
	case EngineCOO:
		return "coo"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine maps a flag value ("csf" or "coo") to a LocalEngine.
func ParseEngine(s string) (LocalEngine, error) {
	switch s {
	case "csf":
		return EngineCSF, nil
	case "coo":
		return EngineCOO, nil
	}
	return 0, fmt.Errorf("sparse: unknown engine %q (want csf or coo)", s)
}

// ParallelResult carries a distributed sparse MTTKRP's output and
// traffic statistics. Its TotalSent is by construction the (lambda-1)
// communication volume of the partition.
type ParallelResult struct {
	B *tensor.Matrix
	simnet.Traffic
}

// ParallelMTTKRP runs an owner-computes expand/fold sparse MTTKRP on
// the simulated machine: each processor owns the nonzeros its
// partition assigns it; every factor/output row is owned by the
// lowest-numbered part touching it. The expand phase sends each input
// row to its non-owner touchers; the fold phase sends partial output
// rows to their owners. Total words sent equal CommVolume(c, part, n, R)
// exactly, making the hypergraph metric a measured quantity.
//
// Local compute runs on the CSF engine; use ParallelMTTKRPEngine to
// select the COO fallback.
func ParallelMTTKRP(c *COO, factors []*tensor.Matrix, n int, part Partition) (*ParallelResult, error) {
	return ParallelMTTKRPEngine(c, factors, n, part, EngineCSF)
}

// ParallelMTTKRPEngine is ParallelMTTKRP with an explicit local
// engine. Phase spans (expand/local/fold) and per-rank comm word
// counts flow to the active obs collector; the communication schedule
// is engine-independent, so TotalSent always equals the hypergraph
// metric.
func ParallelMTTKRPEngine(c *COO, factors []*tensor.Matrix, n int, part Partition, engine LocalEngine) (*ParallelResult, error) {
	if len(part.Assign) != c.NNZ() {
		return nil, fmt.Errorf("sparse: partition covers %d of %d entries", len(part.Assign), c.NNZ())
	}
	R, err := tensor.CheckFactors(c, factors, n)
	if err != nil {
		return nil, err
	}
	P := part.P
	local := split(c, part)

	// Per-rank fiber trees, rooted at the output mode so each rank's
	// partial rows are exactly its root fibers. Built outside the
	// simulated machine: in the model the local data layout is free,
	// like the initial distribution of the factor rows.
	var csfs []*CSF
	if engine == EngineCSF {
		csfs = make([]*CSF, P)
		for p := 0; p < P; p++ {
			csfs[p] = FromCOO(local[p], n)
		}
	}

	// Deterministic communication schedules, built over the touched rows
	// in (mode, index) order so both ends of a channel agree on its row
	// order. A row's owner is its lowest-numbered toucher. An input row
	// starts at its owner (free in the model, like the layout) and
	// expands to every other toucher; an output row's partials fold
	// from every other toucher to the owner.
	touch := lambda(c, part)
	touched := make([]rowKey, 0, len(touch))
	for key := range touch {
		touched = append(touched, key)
	}
	sort.Slice(touched, func(a, b int) bool {
		if touched[a].mode != touched[b].mode {
			return touched[a].mode < touched[b].mode
		}
		return touched[a].idx < touched[b].idx
	})
	expand := make(map[[2]int][]rowKey) // (src, dst) -> ordered row keys
	fold := make(map[[2]int][]rowKey)
	ownedRows := make([]map[rowKey][]float64, P)
	for p := range ownedRows {
		ownedRows[p] = make(map[rowKey][]float64)
	}
	for _, key := range touched {
		o := P
		for p := range touch[key] {
			o = min(o, p)
		}
		if key.mode != n {
			row := make([]float64, R)
			for r := range row {
				row[r] = factors[key.mode].At(key.idx, r)
			}
			ownedRows[o][key] = row
		}
		for p := 0; p < P; p++ {
			switch {
			case p == o || !touch[key][p]:
			case key.mode != n:
				expand[[2]int{o, p}] = append(expand[[2]int{o, p}], key)
			default:
				fold[[2]int{p, o}] = append(fold[[2]int{p, o}], key)
			}
		}
	}

	net := simnet.New(P)
	finalRows := make([]map[int][]float64, P) // output row -> values, at owner
	err = net.Run(func(rank int) error {
		// Expand phase: send owned rows to touchers, one batched
		// message per destination.
		expandSpan := obs.StartRank(rank, obs.PhaseExpand)
		haveRows := ownedRows[rank] // the rank's own rows, then the ones it receives
		for dst := 0; dst < P; dst++ {
			keys := expand[[2]int{rank, dst}]
			if len(keys) == 0 {
				continue
			}
			payload := make([]float64, 0, len(keys)*R)
			for _, key := range keys {
				payload = append(payload, haveRows[key]...)
			}
			net.Send(rank, dst, payload)
		}
		for src := 0; src < P; src++ {
			keys := expand[[2]int{src, rank}]
			if len(keys) == 0 {
				continue
			}
			payload := net.Recv(src, rank)
			if len(payload) != len(keys)*R {
				return fmt.Errorf("sparse: rank %d expand payload %d, want %d", rank, len(payload), len(keys)*R)
			}
			for i, key := range keys {
				haveRows[key] = payload[i*R : (i+1)*R]
			}
		}
		expandSpan.Stop()

		// Local owner-computes accumulation into partial output rows.
		localSpan := obs.StartRank(rank, obs.PhaseLocal)
		var partial map[int][]float64
		if engine == EngineCSF {
			partial = localCSF(csfs[rank], haveRows, rank, R)
		} else {
			partial = localCOO(local[rank], haveRows, n, R)
		}
		localSpan.Stop()

		// Fold phase: ship partial rows to their owners.
		foldSpan := obs.StartRank(rank, obs.PhaseFold)
		defer foldSpan.Stop()
		for dst := 0; dst < P; dst++ {
			keys := fold[[2]int{rank, dst}]
			if len(keys) == 0 {
				continue
			}
			payload := make([]float64, 0, len(keys)*R)
			for _, key := range keys {
				row := partial[key.idx]
				if row == nil {
					row = make([]float64, R)
				}
				payload = append(payload, row...)
				delete(partial, key.idx) // shipped away
			}
			net.Send(rank, dst, payload)
		}
		for src := 0; src < P; src++ {
			keys := fold[[2]int{src, rank}]
			if len(keys) == 0 {
				continue
			}
			payload := net.Recv(src, rank)
			if len(payload) != len(keys)*R {
				return fmt.Errorf("sparse: rank %d fold payload %d, want %d", rank, len(payload), len(keys)*R)
			}
			for i, key := range keys {
				out := partial[key.idx]
				if out == nil {
					out = make([]float64, R)
					partial[key.idx] = out
				}
				for r := 0; r < R; r++ {
					out[r] += payload[i*R+r]
				}
			}
		}
		finalRows[rank] = partial
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble B from the owners.
	b := tensor.NewMatrix(c.dims[n], R)
	for _, rows := range finalRows {
		for row, vals := range rows {
			for r := 0; r < R; r++ {
				b.AddAt(row, r, vals[r])
			}
		}
	}
	return &ParallelResult{B: b, Traffic: net.AllStats()}, nil
}

// localCSF runs one rank's local compute over its fiber tree: the
// gathered factor rows are packed into the workspace's row-major
// level slabs (rows the rank never touches stay zero and are never
// read), one kernel pass fills the root-level accumulator, and the
// partial map is read off the root fibers — exactly the distinct
// local output rows.
func localCSF(t *CSF, haveRows map[rowKey][]float64, rank, R int) map[int][]float64 {
	partial := make(map[int][]float64, t.Fibers())
	if t.NNZ() == 0 {
		return partial
	}
	_, nbuf := t.pool(1)
	total := t.dims[t.perm[0]] * R
	ws := NewWorkspace()
	ws.ensure(t, R, 1, nbuf, total)
	for lv := 1; lv < len(t.dims); lv++ {
		clear(ws.packed[lv])
	}
	// Map iteration order is irrelevant: every row lands in its own
	// disjoint slab slot.
	for key, row := range haveRows {
		lv := t.lvl[key.mode]
		copy(ws.packed[lv][key.idx*R:(key.idx+1)*R], row)
	}
	t.kernelPass(R, 0, 1, nbuf, total, ws)
	t.addKernelCostWorker(rank, 0, R)
	for _, ri := range t.idx[0] {
		row := make([]float64, R)
		copy(row, ws.acc[int(ri)*R:(int(ri)+1)*R])
		partial[int(ri)] = row
	}
	return partial
}

// localCOO is the naive per-nonzero fallback local compute.
func localCOO(c *COO, haveRows map[rowKey][]float64, n, R int) map[int][]float64 {
	partial := make(map[int][]float64)
	for e, v := range c.vals {
		i := int(c.coords[n][e])
		out := partial[i]
		if out == nil {
			out = make([]float64, R)
			partial[i] = out
		}
		for r := 0; r < R; r++ {
			p := v
			for k, col := range c.coords {
				if k == n {
					continue
				}
				p *= haveRows[rowKey{k, int(col[e])}][r]
			}
			out[r] += p
		}
	}
	return partial
}

// split hands each part its nonzeros, in order, arrays sized exactly.
func split(c *COO, part Partition) []*COO {
	counts := make([]int, part.P)
	for _, p := range part.Assign {
		counts[p]++
	}
	local := make([]*COO, part.P)
	for p, m := range counts {
		local[p] = newCOO(c.dims, m)
	}
	next := make([]int, part.P)
	for e, p := range part.Assign {
		l, j := local[p], next[p]
		for k, col := range c.coords {
			l.coords[k][j] = col[e]
		}
		l.vals[j] = c.vals[e]
		next[p]++
	}
	return local
}
