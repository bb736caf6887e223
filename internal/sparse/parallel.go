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
	N := c.Order()
	if len(part.Assign) != c.NNZ() {
		return nil, fmt.Errorf("sparse: partition covers %d of %d entries", len(part.Assign), c.NNZ())
	}
	R, err := tensor.CheckFactors(c, factors, n)
	if err != nil {
		return nil, err
	}
	P := part.P

	// Row touchers and owners (lowest-numbered toucher).
	touch := lambda(c, part, n)
	owner := make(map[rowKey]int, len(touch))
	for key, parts := range touch {
		o := P
		for p := range parts {
			if p < o {
				o = p
			}
		}
		owner[key] = o
	}

	// Local nonzeros per part.
	localEntries := make([][]Entry, P)
	for e, ent := range c.entries {
		p := part.Assign[e]
		localEntries[p] = append(localEntries[p], ent)
	}

	// Per-rank fiber trees, rooted at the output mode so each rank's
	// partial rows are exactly its root fibers. Built outside the
	// simulated machine: in the model the local data layout is free,
	// like the initial distribution of the factor rows.
	var csfs []*CSF
	if engine == EngineCSF {
		csfs = make([]*CSF, P)
		for p := 0; p < P; p++ {
			csfs[p] = FromCOO(&COO{dims: c.dims, entries: localEntries[p]}, n)
		}
	}

	// Deterministic communication schedules. Keys sorted for matching
	// send/receive order on both sides.
	type schedule struct {
		keys map[[2]int][]rowKey // (src,dst) -> ordered row keys
	}
	expand := schedule{keys: make(map[[2]int][]rowKey)}
	fold := schedule{keys: make(map[[2]int][]rowKey)}
	sortedKeys := make([]rowKey, 0, len(touch))
	for key := range touch {
		sortedKeys = append(sortedKeys, key)
	}
	sort.Slice(sortedKeys, func(a, b int) bool {
		if sortedKeys[a].mode != sortedKeys[b].mode {
			return sortedKeys[a].mode < sortedKeys[b].mode
		}
		return sortedKeys[a].idx < sortedKeys[b].idx
	})
	for _, key := range sortedKeys {
		o := owner[key]
		for p := 0; p < P; p++ {
			if p == o || !touch[key][p] {
				continue
			}
			if key.mode != n {
				// Input row: owner -> toucher.
				expand.keys[[2]int{o, p}] = append(expand.keys[[2]int{o, p}], key)
			} else {
				// Output row: toucher -> owner.
				fold.keys[[2]int{p, o}] = append(fold.keys[[2]int{p, o}], key)
			}
		}
	}

	// Owned factor rows handed out by the driver (inputs start
	// distributed at their owners, free in the model).
	ownedRows := make([]map[rowKey][]float64, P)
	for p := 0; p < P; p++ {
		ownedRows[p] = make(map[rowKey][]float64)
	}
	for key, o := range owner {
		if key.mode == n {
			continue
		}
		row := make([]float64, R)
		for r := 0; r < R; r++ {
			row[r] = factors[key.mode].At(key.idx, r)
		}
		ownedRows[o][key] = row
	}

	net := simnet.New(P)
	finalRows := make([]map[int][]float64, P) // output row -> values, at owner
	err = net.Run(func(rank int) error {
		// Expand phase: send owned rows to touchers, one batched
		// message per destination.
		expandSpan := obs.StartRank(rank, obs.PhaseExpand)
		for dst := 0; dst < P; dst++ {
			keys := expand.keys[[2]int{rank, dst}]
			if len(keys) == 0 {
				continue
			}
			payload := make([]float64, 0, len(keys)*R)
			for _, key := range keys {
				payload = append(payload, ownedRows[rank][key]...)
			}
			net.Send(rank, dst, payload)
		}
		haveRows := make(map[rowKey][]float64, len(ownedRows[rank]))
		for key, row := range ownedRows[rank] {
			haveRows[key] = row
		}
		for src := 0; src < P; src++ {
			keys := expand.keys[[2]int{src, rank}]
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
			partial = localCOO(localEntries[rank], haveRows, n, N, R)
		}
		localSpan.Stop()

		// Fold phase: ship partial rows to their owners.
		foldSpan := obs.StartRank(rank, obs.PhaseFold)
		defer foldSpan.Stop()
		for dst := 0; dst < P; dst++ {
			keys := fold.keys[[2]int{rank, dst}]
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
			keys := fold.keys[[2]int{src, rank}]
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
	assemble(b, finalRows, R)
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
		slab := ws.packed[lv]
		for i := range slab {
			slab[i] = 0
		}
	}
	// Map iteration order is irrelevant: every row lands in its own
	// disjoint slab slot.
	for key, row := range haveRows {
		lv := t.lvl[key.mode]
		copy(ws.packed[lv][key.idx*R:(key.idx+1)*R], row)
	}
	t.kernelPass(R, 0, 1, nbuf, total, ws)
	t.addKernelCostWorker(rank, 0, R)
	for f, ri := range t.idx[0] {
		row := make([]float64, R)
		copy(row, ws.acc[int(ri)*R:(int(ri)+1)*R])
		partial[int(ri)] = row
		_ = f
	}
	return partial
}

// localCOO is the naive per-nonzero fallback local compute.
func localCOO(entries []Entry, haveRows map[rowKey][]float64, n, N, R int) map[int][]float64 {
	partial := make(map[int][]float64)
	for _, ent := range entries {
		out := partial[ent.Idx[n]]
		if out == nil {
			out = make([]float64, R)
			partial[ent.Idx[n]] = out
		}
		for r := 0; r < R; r++ {
			p := ent.Val
			for k := 0; k < N; k++ {
				if k == n {
					continue
				}
				p *= haveRows[rowKey{k, ent.Idx[k]}][r]
			}
			out[r] += p
		}
	}
	return partial
}

// assemble adds every owner's final rows into the output matrix.
func assemble(b *tensor.Matrix, finalRows []map[int][]float64, R int) {
	for _, rows := range finalRows {
		for row, vals := range rows {
			for r := 0; r < R; r++ {
				b.AddAt(row, r, vals[r])
			}
		}
	}
}
