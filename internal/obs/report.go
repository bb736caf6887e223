package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/bounds"
)

// Machine describes the machine model a measured run executed on. Zero
// fields are omitted from JSON: a sequential run has M only, a
// simulated distributed run has P, a shared-memory run has Workers.
type Machine struct {
	M       int64 `json:"m,omitempty"`       // fast memory words (two-level model)
	P       int   `json:"p,omitempty"`       // simulated processors
	Workers int   `json:"workers,omitempty"` // shared-memory goroutines
}

// Report is the per-run JSON document joining measured counters against
// the paper's lower bounds. Bounds maps bound names to word counts;
// Ratios maps "measured/<bound>" to MeasuredWords divided by that
// bound, emitted only for bounds that are positive (the paper's
// expressions go vacuous — zero or negative — for some parameters).
type Report struct {
	Name    string  `json:"name"`
	Algo    string  `json:"algo,omitempty"`
	Dims    []int   `json:"dims"`
	Rank    int     `json:"rank"`
	Mode    int     `json:"mode"`
	Machine Machine `json:"machine"`

	// Counters are the run's measured totals (collector totals, or
	// exact memsim/simnet counts for the instrumented model machines).
	Counters Totals      `json:"counters"`
	Phases   []PhaseStat `json:"phases,omitempty"`

	// MeasuredWords is the headline data-movement figure the ratios
	// divide: loads+stores for sequential runs, max words per processor
	// for parallel runs, streaming-model operand traffic for
	// shared-memory engine runs. It is denominated in the paper's
	// 8-byte words: element counts scale by WordBytes/8 on the way in.
	MeasuredWords int64 `json:"measured_words"`

	// WordBytes is the storage width in bytes of one streamed element:
	// 8 for float64 runs, 4 for the float32 path (0 is treated as 8).
	// The bounds count words, so halving the bytes per element honestly
	// halves the measured traffic joined against them — set this before
	// FillFromCollector or SetMeasuredWords.
	WordBytes int `json:"word_bytes,omitempty"`

	Bounds map[string]float64 `json:"bounds,omitempty"`
	Ratios map[string]float64 `json:"ratios,omitempty"`

	// Plan records the autotuner's decision when the run was planned
	// (engine auto): what was picked and what the cost model predicted,
	// so reports can compare predicted against measured traffic/time.
	Plan *PlanInfo `json:"plan,omitempty"`

	WallNs int64 `json:"wall_ns,omitempty"`
}

// PlanInfo is the planner decision attached to a report. It lives here
// (rather than in internal/plan) so obs stays dependency-free: plan
// imports obs, never the reverse.
type PlanInfo struct {
	Engine           string  `json:"engine"`
	Workers          int     `json:"workers"`
	GemmKC           int     `json:"gemm_kc,omitempty"`
	GemmMC           int     `json:"gemm_mc,omitempty"`
	Chunks           int     `json:"chunks,omitempty"`
	PredictedWords   float64 `json:"predicted_words"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	CalibrationKey   string  `json:"calibration_key,omitempty"`
}

// NewReport starts a report for one measured run.
func NewReport(name, algo string, dims []int, rank, mode int, mach Machine) *Report {
	return &Report{
		Name:    name,
		Algo:    algo,
		Dims:    append([]int(nil), dims...),
		Rank:    rank,
		Mode:    mode,
		Machine: mach,
	}
}

// Problem returns the bounds.Problem this report describes.
func (r *Report) Problem() bounds.Problem {
	return bounds.Problem{Dims: r.Dims, R: r.Rank}
}

// JoinBound records one named lower bound and, when the bound is
// positive and finite, the measured/bound ratio.
func (r *Report) JoinBound(name string, w float64) {
	if r.Bounds == nil {
		r.Bounds = map[string]float64{}
	}
	r.Bounds[name] = w
	if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
		if r.Ratios == nil {
			r.Ratios = map[string]float64{}
		}
		r.Ratios["measured/"+name] = float64(r.MeasuredWords) / w
	}
}

// JoinSeqBounds joins the sequential bounds for fast memory M words:
// the memory-dependent Theorem 4.1 bound, the trivial Fact 4.1 bound,
// and their max ("seq-best", the operative lower bound).
func (r *Report) JoinSeqBounds(M float64) {
	p := r.Problem()
	r.JoinBound("seq-memdep-thm4.1", bounds.SeqMemDependent(p, M))
	r.JoinBound("seq-trivial-fact4.1", bounds.SeqTrivial(p, M))
	r.JoinBound("seq-best", bounds.SeqBest(p, M))
}

// JoinParBounds joins the parallel bounds for P processors with
// balanced layouts (gamma = delta = 1), each summed over the run's
// mttkrps MTTKRPs (1 for a single MTTKRP; a CP-ALS run does N per
// sweep), so that a run's per-processor words join the bound of all
// the MTTKRPs they moved: the memory-independent Theorems 4.2/4.3 and
// their max ("par-best"), the Corollary 4.2 combined expression for
// cubical problems, and — when M > 0 — the memory-dependent Corollary
// 4.1 bound.
func (r *Report) JoinParBounds(P, M float64, mttkrps int) {
	p := r.Problem()
	n := float64(max(mttkrps, 1))
	r.JoinBound("par-memindep1-thm4.2", n*bounds.ParMemIndependent1(p, P, 1, 1))
	r.JoinBound("par-memindep2-thm4.3", n*bounds.ParMemIndependent2(p, P, 1, 1))
	r.JoinBound("par-best", n*bounds.ParBest(p, P, 1, 1))
	if cubical(r.Dims) {
		r.JoinBound("par-cubical-cor4.2", n*bounds.CubicalCombined(p, P))
	}
	if M > 0 {
		r.JoinBound("par-memdep-cor4.1", n*bounds.ParMemDependent(p, M, P))
	}
}

// JoinMultiTTMBounds joins the Multi-TTM parallel lower bounds
// (arXiv:2207.10437) that govern `sweeps` Tucker HOOI sweeps on P
// processors with the given per-mode ranks: "multittm-core" is the
// single full core chain, "multittm-chain-max" the largest of the
// per-mode projection chains, and "multittm-sweeps" the sum of every
// chain bound in every sweep (the figure a whole run's measured comm
// words joins against). Vacuous (non-positive) per-chain bounds
// contribute zero to the sum.
func (r *Report) JoinMultiTTMBounds(ranks []int, P float64, sweeps int) {
	if sweeps < 1 {
		sweeps = 1
	}
	per := bounds.TuckerSweepBounds(r.Dims, ranks, P)
	core := per[len(per)-1]
	chainMax := math.Inf(-1)
	perSweep := math.Max(core, 0)
	for _, b := range per[:len(per)-1] {
		chainMax = math.Max(chainMax, b)
		perSweep += math.Max(b, 0)
	}
	r.JoinBound("multittm-core", core)
	r.JoinBound("multittm-chain-max", chainMax)
	r.JoinBound("multittm-sweeps", perSweep*float64(sweeps))
}

// Ratio returns the measured/bound ratio for name, or 0 when that
// bound is vacuous or absent.
func (r *Report) Ratio(name string) float64 { return r.Ratios["measured/"+name] }

// ScaleWords converts a streamed-element count into the paper's 8-byte
// words under the report's word size: identity for float64, exactly
// half for float32.
func (r *Report) ScaleWords(elems int64) int64 {
	wb := int64(r.WordBytes)
	if wb == 0 {
		wb = 8
	}
	return elems * wb / 8
}

// SetMeasuredWords records the headline traffic from a streamed
// element count, applying the word-size scaling.
func (r *Report) SetMeasuredWords(elems int64) { r.MeasuredWords = r.ScaleWords(elems) }

// FillFromCollector copies the collector's totals, phase aggregates,
// and — when MeasuredWords is still unset — the streaming-model word
// total into the report.
func (r *Report) FillFromCollector(c *Collector) {
	t := c.Totals()
	r.Counters = t
	r.Phases = c.PhaseStats()
	if r.MeasuredWords == 0 {
		r.MeasuredWords = r.ScaleWords(t.Words())
	}
}

// WriteJSON writes the report as indented JSON (map keys sorted, so
// output is deterministic given deterministic values).
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Format writes the human-readable report.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "obs: %s algo=%s dims=%v R=%d mode=%d", r.Name, r.Algo, r.Dims, r.Rank, r.Mode)
	if r.Machine.M > 0 {
		fmt.Fprintf(w, " M=%d", r.Machine.M)
	}
	if r.Machine.P > 0 {
		fmt.Fprintf(w, " P=%d", r.Machine.P)
	}
	if r.Machine.Workers > 0 {
		fmt.Fprintf(w, " workers=%d", r.Machine.Workers)
	}
	fmt.Fprintln(w)
	t := r.Counters
	fmt.Fprintf(w, "  counters: read=%d written=%d flops=%d", t.WordsRead, t.WordsWritten, t.Flops)
	if t.CommSent+t.CommRecv > 0 {
		fmt.Fprintf(w, " sent=%d recv=%d", t.CommSent, t.CommRecv)
	}
	fmt.Fprintf(w, " allocs=%d bytes=%d\n", t.Allocs, t.Bytes)
	for _, ps := range r.Phases {
		fmt.Fprintf(w, "  phase %-14s count=%-6d total=%v\n", ps.Phase, ps.Count, time.Duration(ps.Nanos))
	}
	if p := r.Plan; p != nil {
		fmt.Fprintf(w, "  plan: engine=%s workers=%d", p.Engine, p.Workers)
		if p.GemmKC > 0 {
			fmt.Fprintf(w, " kc=%d mc=%d", p.GemmKC, p.GemmMC)
		}
		if p.Chunks > 0 {
			fmt.Fprintf(w, " chunks=%d", p.Chunks)
		}
		fmt.Fprintf(w, " predicted_words=%.4g", p.PredictedWords)
		if p.PredictedSeconds > 0 {
			fmt.Fprintf(w, " predicted=%v", time.Duration(p.PredictedSeconds*1e9))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  measured words moved = %d", r.MeasuredWords)
	if r.WordBytes != 0 && r.WordBytes != 8 {
		fmt.Fprintf(w, " (storage word = %d bytes)", r.WordBytes)
	}
	fmt.Fprintln(w)
	for _, name := range sortedKeys(r.Bounds) {
		v := r.Bounds[name]
		if ratio, ok := r.Ratios["measured/"+name]; ok {
			fmt.Fprintf(w, "  bound %-22s %14.4g   ratio %.3f\n", name, v, ratio)
		} else {
			fmt.Fprintf(w, "  bound %-22s %14.4g   (vacuous)\n", name, v)
		}
	}
	if r.WallNs > 0 {
		fmt.Fprintf(w, "  wall time = %v\n", time.Duration(r.WallNs))
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cubical(dims []int) bool {
	for _, d := range dims[1:] {
		if d != dims[0] {
			return false
		}
	}
	return true
}
