package flight_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/cpals"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/par"
	"repro/internal/tensor"
)

// countKinds runs one interior-mode kernel pass under a fresh recorder
// and returns the per-kind event totals.
func countKinds(t *testing.T, x *tensor.Dense, factors []*tensor.Matrix, workers int) [flight.NumKinds]int64 {
	t.Helper()
	rec := flight.New(8, 1<<14)
	flight.Enable(rec)
	defer flight.Disable()
	b := tensor.NewMatrix(x.Dim(1), factors[0].Cols())
	ws := kernel.NewWorkspace(x.Dims(), factors[0].Cols(), 1)
	kernel.FastInto(b, x, factors, 1, workers, ws)
	var out [flight.NumKinds]int64
	for k := flight.Kind(0); k < flight.NumKinds; k++ {
		out[k] = rec.Count(k)
	}
	return out
}

// TestEventTotalsWorkerIndependent pins the tracer to the same
// contract as the obs counters: event totals depend only on the
// problem, never on the worker count — slab chunks are a fixed
// schedule, so only their thread-row attribution varies.
func TestEventTotalsWorkerIndependent(t *testing.T) {
	dims := []int{24, 20, 18}
	R := 8
	factors := tensor.RandomFactors(11, dims, R)
	x := tensor.FromFactors(factors)

	base := countKinds(t, x, factors, 1)
	if base[flight.KindBegin] == 0 || base[flight.KindKernel] == 0 {
		t.Fatalf("baseline recorded no span/kernel events: %v", base)
	}
	if base[flight.KindBegin] != base[flight.KindEnd] {
		t.Fatalf("begin/end mismatch at workers=1: %d vs %d", base[flight.KindBegin], base[flight.KindEnd])
	}
	for _, workers := range []int{2, 3, 7} {
		got := countKinds(t, x, factors, workers)
		if got != base {
			t.Fatalf("event totals at workers=%d = %v, want %v (workers=1)", workers, got, base)
		}
	}
}

// TestStationaryTraceMatchesEq14 runs Algorithm 3 under a distributed
// recorder and checks the exported trace against the paper's Eq. (14)
// schedule: per-rank send words equal the closed form, and per-rank
// send-event counts equal the bucket collectives' q-1 messages summed
// over the per-mode All-Gathers plus the mode-n Reduce-Scatter.
func TestStationaryTraceMatchesEq14(t *testing.T) {
	dims := []int{8, 8, 8}
	R := 4
	n := 0
	shape := []int{2, 2, 2}
	P := 8
	factors := tensor.RandomFactors(7, dims, R)
	x := tensor.FromFactors(factors)

	rec := flight.NewDistributed(P, 1<<12)
	flight.Enable(rec)
	defer flight.Disable()
	if _, err := par.Stationary(x, factors, n, shape); err != nil {
		t.Fatal(err)
	}
	flight.Disable()

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := flight.Validate(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Eq. (14): sum_k (P/P_k - 1) * I_k R / P words sent per rank
	// (balanced distribution: dims divisible by the grid).
	m := costmodel.Model{Dims: []float64{8, 8, 8}, R: float64(R)}
	wantWords := int64(m.Alg3Words([]float64{2, 2, 2}))
	// Bucket collectives send q_k - 1 messages per rank: the mode-k
	// All-Gathers for k != n plus the mode-n Reduce-Scatter — with
	// nnz(A(k)_p) = nnz(B(n)_p) the mode-n term needs no special case,
	// exactly as in the closed form.
	wantEvents := 0
	for k := range shape {
		wantEvents += P/shape[k] - 1
	}
	for r := 0; r < P; r++ {
		if got := sum.SendWords[r]; got != wantWords {
			t.Errorf("rank %d send words = %d, Eq. (14) = %d", r, got, wantWords)
		}
		if got := sum.SendEvents[r]; got != wantEvents {
			t.Errorf("rank %d send events = %d, schedule = %d", r, got, wantEvents)
		}
		if sum.RecvWords[r] != wantWords || sum.RecvEvents[r] != wantEvents {
			t.Errorf("rank %d recv side = %d words / %d events, want %d / %d",
				r, sum.RecvWords[r], sum.RecvEvents[r], wantWords, wantEvents)
		}
	}
	if sum.Flows != P*wantEvents {
		t.Errorf("flows = %d, want %d (every Send paired with its Recv)", sum.Flows, P*wantEvents)
	}
}

// TestParallelCPALSTraceFlowsPair is the acceptance run: parallel
// CP-ALS on a 4x4x4 simnet grid exports a trace whose Send→Recv flow
// events exactly pair up and whose per-rank comm event counts equal
// the solver's collective schedule — cross-checked against the obs
// comm counters word for word.
func TestParallelCPALSTraceFlowsPair(t *testing.T) {
	dims := []int{64, 64, 64}
	R := 2
	shape := []int{4, 4, 4}
	P := 64
	truth := tensor.RandomFactors(23, dims, R)
	x := tensor.FromFactors(truth)

	rec := flight.NewDistributed(P, 1<<12)
	flight.Enable(rec)
	defer flight.Disable()
	col := obs.New(P)
	obs.Enable(col)
	defer obs.Disable()

	res, err := cpals.DecomposeParallel(x, shape, cpals.Options{R: R, MaxIters: 1, Tol: math.Inf(-1), Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	flight.Disable()
	obs.Disable()
	iters := len(res.Trace)

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := flight.Validate(buf.Bytes()) // errors if any flow is unpaired
	if err != nil {
		t.Fatal(err)
	}

	// Per-rank send events from the collective schedule: every bucket
	// collective over q ranks sends q-1 messages per member, and
	// AllReduce = ReduceScatter + AllGather. A refresh of mode k is one
	// hyperslice gather of U_k's block row plus one Gram AllReduce over
	// the mode-k fiber of p ranks. Outside the sweeps: the normX
	// AllReduce and a refresh of every mode but 0. Per sweep and mode:
	// the hyperslice reduce-scatter of B(n) and a refresh of mode n;
	// then one fit AllReduce.
	N := len(shape)
	p := shape[0]
	q := P / p // 16: all hyperslices have this size on the cubic grid
	ar := 2 * (P - 1)
	refresh := (q - 1) + 2*(p-1)
	wantEvents := ar + (N-1)*refresh + iters*(N*((q-1)+refresh)+ar)
	if wantEvents != 402 {
		t.Fatalf("schedule gives %d sends per rank, want 402", wantEvents)
	}
	totalFlows := 0
	for r := 0; r < P; r++ {
		if got := sum.SendEvents[r]; got != wantEvents {
			t.Errorf("rank %d send events = %d, want %d", r, got, wantEvents)
		}
		if sum.SendEvents[r] != sum.RecvEvents[r] {
			t.Errorf("rank %d: %d sends vs %d recvs", r, sum.SendEvents[r], sum.RecvEvents[r])
		}
		totalFlows += sum.SendEvents[r]
	}
	if sum.Flows != totalFlows {
		t.Errorf("flows = %d, want %d (exact Send→Recv pairing)", sum.Flows, totalFlows)
	}

	// The trace's words agree with the obs comm counters exactly.
	totals := col.Totals()
	if got := sum.TotalSendWords(); got != totals.CommSent {
		t.Errorf("trace send words = %d, obs comm_sent = %d", got, totals.CommSent)
	}
	var recvWords int64
	for _, w := range sum.RecvWords {
		recvWords += w //repro:ignore determinism integer accumulation is exact in any order
	}
	if recvWords != totals.CommRecv {
		t.Errorf("trace recv words = %d, obs comm_recv = %d", recvWords, totals.CommRecv)
	}
}
