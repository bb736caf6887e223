// Package obs is the runtime observability layer: zero-allocation
// counters and phase timers that every engine in the repository reports
// through, plus a Report type that joins the measured totals against
// the paper's communication lower bounds (internal/bounds).
//
// The design mirrors the measurement methodology of the paper's
// experiments (and of the Multi-TTM follow-up): an algorithm's
// *measured* data movement should sit within a small constant factor of
// the applicable lower bound, so measurement has to be cheap enough to
// leave on and precise enough to compare against closed forms.
//
//   - A Collector owns pre-allocated per-worker counter slabs (one
//     cache line per worker; words read/written, flops, collective
//     sends/receives) updated with atomic adds, and per-phase span
//     counts and nanoseconds; the span timeline itself is the flight
//     recorder's. Nothing on the update path allocates, ever.
//   - The package-level active collector is never nil: the default is a
//     statically allocated disabled collector whose update methods
//     return after a single branch, so uninstrumented runs pay one
//     atomic pointer load and a predictable branch per instrumentation
//     site — at kernel-call granularity, unmeasurable — and the
//     repolint hotpath-alloc analyzer walks these functions as part of
//     the engine hot paths.
//   - Counter semantics are the streaming model at kernel-call
//     granularity: each GEMM/KRP/fold pass counts its operand words
//     read, result words written, and flops once per invocation. Totals
//     are therefore independent of the worker count (work splits move
//     whole call ranges, never fractions of a counted unit), which
//     TestCounterWorkerIndependence pins.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs/flight"
)

// Counter indexes one slot of a per-worker counter slab.
type Counter uint8

const (
	// WordsRead counts operand words read by instrumented kernels
	// (streaming model: once per kernel invocation).
	WordsRead Counter = iota
	// WordsWritten counts result words written by instrumented kernels.
	WordsWritten
	// Flops counts floating-point operations (multiply-adds count 2).
	Flops
	// CommSent counts words sent through simulated-network collectives.
	CommSent
	// CommRecv counts words received through simulated-network
	// collectives.
	CommRecv

	// NumCounters is the number of counter kinds.
	NumCounters
)

// counterNames indexes Counter; keep in sync with the constants.
var counterNames = [NumCounters]string{
	"words_read", "words_written", "flops", "comm_sent", "comm_recv",
}

// String returns the snake_case counter name used in JSON reports.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter?"
}

// Phase identifies one kind of timed span.
type Phase uint8

const (
	// PhaseKernel covers one KRP-splitting MTTKRP (kernel.FastInto).
	PhaseKernel Phase = iota
	// PhaseKRP covers partial Khatri-Rao panel formation.
	PhaseKRP
	// PhaseTreeRoot covers a dimtree.Engine's contractions of the
	// tensor itself: the tree's roots, and the CP-ALS solvers' MTTKRPs
	// that read the tensor (every one of cpals.Decompose's).
	PhaseTreeRoot
	// PhaseTreePartial covers dimension-tree partial contractions.
	PhaseTreePartial
	// PhaseSeq covers one instrumented sequential MTTKRP (Algorithms
	// 1-2 and the via-matmul baseline on the two-level memory model).
	PhaseSeq
	// PhaseAllGather covers All-Gather collectives.
	PhaseAllGather
	// PhaseReduceScatter covers Reduce-Scatter collectives.
	PhaseReduceScatter
	// PhaseAllReduce covers All-Reduce collectives.
	PhaseAllReduce
	// PhaseLocal covers a parallel rank's local MTTKRP kernel.
	PhaseLocal
	// PhaseGram covers Gram-matrix formation in ALS/HOOI sweeps.
	PhaseGram
	// PhaseSolve covers normal-equation solves in ALS sweeps.
	PhaseSolve
	// PhaseFit covers fit/objective evaluation.
	PhaseFit
	// PhaseSparse covers one CSF sparse-MTTKRP kernel invocation
	// (sparse.CSF MTTKRPInto/AllModesInto).
	PhaseSparse
	// PhaseExpand covers the expand (input-row distribution) phase of
	// the owner-computes sparse parallelization.
	PhaseExpand
	// PhaseFold covers the fold (partial-output merge) phase of the
	// owner-computes sparse parallelization.
	PhaseFold
	// PhaseTTM covers one mode-k TTM GEMM pass (ttm.TTMInto).
	PhaseTTM
	// PhaseTTMChain covers one multi-TTM contraction: a node's
	// contraction into a child in the ttm.TreeInto walk that computes
	// a Tucker HOOI sweep's projections.
	PhaseTTMChain

	// NumPhases is the number of phase kinds.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"kernel", "krp", "tree-root", "tree-partial", "seq",
	"allgather", "reducescatter", "allreduce", "local",
	"gram", "solve", "fit", "sparse", "expand", "fold",
	"ttm", "ttm-chain",
}

// String returns the phase name used in JSON reports.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// flightPhase holds the flight-recorder name id of every phase, plus
// the kernel-op names the counter helpers forward, interned once so
// span hot paths carry no strings.
var (
	flightPhase [NumPhases]uint8
	nameGemm    = flight.RegisterName("gemm")
	nameKRP     = flight.RegisterName("krp")
	nameAxpy    = flight.RegisterName("axpy")
	nameCopy    = flight.RegisterName("copy")
	nameSyrk    = flight.RegisterName("syrk")
)

func init() {
	for p := 0; p < int(NumPhases); p++ {
		flightPhase[p] = flight.RegisterName(phaseNames[p])
	}
}

// slotWords pads each worker's counter slab to one 64-byte cache line
// so concurrent workers never false-share counter words.
const slotWords = 8

// PhaseStat aggregates every span of one phase.
type PhaseStat struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	Nanos int64  `json:"ns"`
}

// Collector accumulates counters and phase spans for one measured run.
// All update methods are safe for concurrent use and allocate nothing;
// construction pre-sizes every buffer. The zero value is a valid
// *disabled* collector (every update is a no-op), which is what backs
// the package default.
type Collector struct {
	on      bool
	workers int
	slabs   []int64 // workers * slotWords, updated atomically

	phaseNs    [NumPhases]int64 // atomic
	phaseCount [NumPhases]int64 // atomic

	base         time.Time
	startMallocs uint64
	startBytes   uint64
}

// New returns an enabled collector with per-worker counter slabs for
// the given worker count (<= 0 selects GOMAXPROCS). Counter updates
// tagged with a worker index outside [0, workers) fold into a slab by
// modulus, so the count only affects contention, never totals.
func New(workers int) *Collector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Collector{
		on:      true,
		workers: workers,
		slabs:   make([]int64, workers*slotWords),
	}
	c.Reset()
	return c
}

// Reset zeroes every counter and phase aggregate, and re-bases the
// clock and the process allocation snapshot.
func (c *Collector) Reset() {
	if !c.on {
		return
	}
	for i := range c.slabs {
		atomic.StoreInt64(&c.slabs[i], 0)
	}
	for p := 0; p < int(NumPhases); p++ {
		atomic.StoreInt64(&c.phaseNs[p], 0)
		atomic.StoreInt64(&c.phaseCount[p], 0)
	}
	c.base = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.startMallocs = ms.Mallocs
	c.startBytes = ms.TotalAlloc
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c.on }

// Workers returns the slab count.
func (c *Collector) Workers() int { return c.workers }

// Add adds n to counter ctr on worker w's slab. Any w is accepted
// (folded by modulus); negative w uses slab 0.
func (c *Collector) Add(w int, ctr Counter, n int64) {
	if !c.on {
		return
	}
	if w < 0 {
		w = 0
	} else if w >= c.workers {
		w %= c.workers
	}
	atomic.AddInt64(&c.slabs[w*slotWords+int(ctr)], n)
}

// Span is an open phase timer returned by Start. The zero value (and
// any span from a disabled collector) is safe to Stop.
type Span struct {
	c     *Collector
	phase Phase
	fl    bool  // mirror the span to the flight recorder on Stop
	rank  int32 // flight process row (AnonPid outside simnet ranks)
	start int64
}

// Start opens a span for phase p on the collector's clock.
func (c *Collector) Start(p Phase) Span {
	if !c.on {
		return Span{}
	}
	return Span{c: c, phase: p, start: int64(time.Since(c.base))}
}

// Stop closes the span: the phase aggregates gain its duration.
func (s Span) Stop() {
	if s.fl {
		flight.Rec().End(int(s.rank), 0, flightPhase[s.phase])
	}
	c := s.c
	if c == nil || !c.on {
		return
	}
	stop := int64(time.Since(c.base))
	atomic.AddInt64(&c.phaseNs[s.phase], stop-s.start)
	atomic.AddInt64(&c.phaseCount[s.phase], 1)
}

// Totals is a point-in-time aggregate of every counter slab plus the
// process-wide allocation delta since the last Reset.
type Totals struct {
	WordsRead    int64 `json:"words_read"`
	WordsWritten int64 `json:"words_written"`
	Flops        int64 `json:"flops"`
	CommSent     int64 `json:"comm_sent"`
	CommRecv     int64 `json:"comm_recv"`
	Allocs       int64 `json:"allocs"`
	Bytes        int64 `json:"bytes"`
}

// Words returns total memory traffic: words read plus written.
func (t Totals) Words() int64 { return t.WordsRead + t.WordsWritten }

// Totals sums the per-worker slabs and snapshots the allocation delta.
// Safe to call while workers are still updating (atomic loads); the
// result is then a consistent-per-counter running snapshot.
func (c *Collector) Totals() Totals {
	var t Totals
	if !c.on {
		return t
	}
	sum := func(ctr Counter) int64 {
		var s int64
		for w := 0; w < c.workers; w++ {
			s += atomic.LoadInt64(&c.slabs[w*slotWords+int(ctr)])
		}
		return s
	}
	t.WordsRead = sum(WordsRead)
	t.WordsWritten = sum(WordsWritten)
	t.Flops = sum(Flops)
	t.CommSent = sum(CommSent)
	t.CommRecv = sum(CommRecv)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Allocs = int64(ms.Mallocs - c.startMallocs)
	t.Bytes = int64(ms.TotalAlloc - c.startBytes)
	return t
}

// PhaseStats returns the aggregate of every phase with at least one
// recorded span, in Phase declaration order.
func (c *Collector) PhaseStats() []PhaseStat {
	if !c.on {
		return nil
	}
	var out []PhaseStat
	for p := 0; p < int(NumPhases); p++ {
		n := atomic.LoadInt64(&c.phaseCount[p])
		if n == 0 {
			continue
		}
		out = append(out, PhaseStat{
			Phase: Phase(p).String(),
			Count: n,
			Nanos: atomic.LoadInt64(&c.phaseNs[p]),
		})
	}
	return out
}

// noop is the permanently disabled default collector. It is a real
// object, so instrumentation sites never test for nil — they load the
// active pointer and call through it unconditionally.
var noop = &Collector{}

// active is the process-wide collector; never nil.
var active atomic.Pointer[Collector]

func init() { active.Store(noop) }

// Enable installs c as the process-wide active collector. A nil c
// restores the disabled default.
func Enable(c *Collector) {
	if c == nil {
		c = noop
	}
	active.Store(c)
}

// Disable restores the disabled default collector.
func Disable() { active.Store(noop) }

// Active returns the process-wide collector (the disabled default when
// none is enabled); never nil.
func Active() *Collector { return active.Load() }

// Enabled reports whether an enabled collector is installed.
func Enabled() bool { return active.Load().on }

// The package-level helpers below are the instrumentation API the
// engines call. Each is a pointer load plus a branch when disabled.

// Add adds n to counter ctr on slab 0 of the active collector.
func Add(ctr Counter, n int64) { active.Load().Add(0, ctr, n) }

// AddWorker adds n to counter ctr on worker w's slab.
func AddWorker(w int, ctr Counter, n int64) { active.Load().Add(w, ctr, n) }

// Gemm records one C = A*B pass with C m x n and inner extent k:
// 2mnk flops, operand reads mk + kn, result writes mn. The transposed
// kernels map their shapes onto the same (m, k, n) triple.
func Gemm(m, k, n int) {
	mm, kk, nn := int64(m), int64(k), int64(n)
	if r := flight.Rec(); r.Enabled() {
		r.Kernel(flight.AnonPid, 0, nameGemm, 2*mm*kk*nn, mm*kk+kk*nn+mm*nn)
	}
	c := active.Load()
	if !c.on {
		return
	}
	c.Add(0, Flops, 2*mm*kk*nn)
	c.Add(0, WordsRead, mm*kk+kk*nn)
	c.Add(0, WordsWritten, mm*nn)
}

// Syrk records one symmetric rank-k update G = A^T A with G n x n and
// inner extent k, formed one triangle at a time: n(n+1)k flops (the
// n(n+1)/2 upper-triangle dots), operand reads nk, result writes
// n(n+1)/2.
func Syrk(n, k int) {
	nn, kk := int64(n), int64(k)
	flops, tri := nn*(nn+1)*kk, nn*(nn+1)/2
	if r := flight.Rec(); r.Enabled() {
		r.Kernel(flight.AnonPid, 0, nameSyrk, flops, nn*kk+tri)
	}
	c := active.Load()
	if !c.on {
		return
	}
	c.Add(0, Flops, flops)
	c.Add(0, WordsRead, nn*kk)
	c.Add(0, WordsWritten, tri)
}

// KRP records one Khatri-Rao panel formation: rows*r result words
// written (and counted as flops, matching the engines' accounting) and
// sumRows*r factor words read.
func KRP(rows, sumRows, r int) {
	out := int64(rows) * int64(r)
	if fr := flight.Rec(); fr.Enabled() {
		fr.Kernel(flight.AnonPid, 0, nameKRP, out, int64(sumRows)*int64(r)+out)
	}
	c := active.Load()
	if !c.on {
		return
	}
	c.Add(0, Flops, out)
	c.Add(0, WordsRead, int64(sumRows)*int64(r))
	c.Add(0, WordsWritten, out)
}

// Axpy records folds scaled-accumulate passes of length n each:
// 2*folds*n flops, folds*n reads and writes.
func Axpy(folds, n int) {
	fn := int64(folds) * int64(n)
	if fr := flight.Rec(); fr.Enabled() {
		fr.Kernel(flight.AnonPid, 0, nameAxpy, 2*fn, 2*fn)
	}
	c := active.Load()
	if !c.on {
		return
	}
	c.Add(0, Flops, 2*fn)
	c.Add(0, WordsRead, fn)
	c.Add(0, WordsWritten, fn)
}

// Copy records a straight move of n words: n reads, n writes, no
// flops.
func Copy(n int) {
	if fr := flight.Rec(); fr.Enabled() {
		fr.Kernel(flight.AnonPid, 0, nameCopy, 0, 2*int64(n))
	}
	c := active.Load()
	if !c.on {
		return
	}
	c.Add(0, WordsRead, int64(n))
	c.Add(0, WordsWritten, int64(n))
}

// Comm records words a simulated-network rank sent and received on
// the rank's slab. simnet.Network's Send and Recv are its callers, so
// the collector's comm counters are the network's own count.
func Comm(rank int, sent, recv int64) {
	c := active.Load()
	if !c.on {
		return
	}
	if sent != 0 {
		c.Add(rank, CommSent, sent)
	}
	if recv != 0 {
		c.Add(rank, CommRecv, recv)
	}
}

// Start opens a span for phase p on the active collector, mirrored to
// the flight recorder as an anonymous (engine-row) span when tracing
// is enabled. When both layers are disabled this is two atomic loads
// and two branches.
func Start(p Phase) Span { return StartRank(flight.AnonPid, p) }

// StartRank opens a span for phase p attributed to a simnet rank: the
// obs collector treats it exactly like Start (phase aggregates are
// rank-agnostic), while the flight recorder renders it on the rank's
// process row. Pass flight.AnonPid when no rank applies.
func StartRank(rank int, p Phase) Span {
	s := active.Load().Start(p)
	if r := flight.Rec(); r.Enabled() {
		r.Begin(rank, 0, flightPhase[p])
		s.fl = true
		s.rank = int32(rank)
		s.phase = p
	}
	return s
}
