package plan

// Runtime calibration: a one-shot startup micro-benchmark measuring
// the machine constants the planner's cost model multiplies against —
// the single-worker GEMM flop rate and stream bandwidth on the active
// dispatch path, and the fanout section overhead. The result is
// cached to disk keyed by simd.Describe() plus the CPU and GOMAXPROCS,
// so every later process start is a single JSON read; a missing,
// truncated, or stale cache silently re-measures and rewrites — it
// must never crash or yield a garbage plan.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/fanout"
	"repro/internal/linalg"
	"repro/internal/simd"
)

// calibrationVersion invalidates cached files when the measurement
// scheme (and therefore the meaning of the constants) changes.
const calibrationVersion = 3

// defaultCacheWords is the calibrated fast-memory size, in 8-byte
// words (512 KiB — a typical per-core L2). Cache probing is
// deliberately out of calibration scope: the consumers only need the
// order of magnitude.
const defaultCacheWords = 1 << 16

// EnvCachePath overrides the calibration cache location when set.
const EnvCachePath = "REPRO_CALIBRATION"

// Calibration holds the machine constants the cost model scales by:
// the single-worker rates the micro-benchmark measures, the fanout
// section overhead, and the fixed fast-memory size. Nothing in it
// models parallel efficiency; Seconds divides the single-worker time
// by the worker count.
type Calibration struct {
	Version    int    `json:"version"`
	Key        string `json:"key"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	FlopsSIMD  float64 `json:"flops_simd"`  // GEMM flops/sec, 1 worker, dispatch path
	StreamSIMD float64 `json:"stream_simd"` // axpy words/sec, 1 worker, dispatch path
	SpawnNs    float64 `json:"spawn_ns"`    // fanout section overhead: waking and joining the parked helpers

	CacheWords int `json:"cache_words"` // fast-memory size in words
}

// Key returns the cache key identifying the machine configuration a
// calibration is valid for: the SIMD dispatch banner (path + CPU
// features + REPRO_NOSIMD state) plus architecture, CPU count, and
// GOMAXPROCS.
func Key() string {
	return simd.Describe() + "|" + runtime.GOARCH + "|cpus=" + strconv.Itoa(runtime.NumCPU()) +
		"|gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0))
}

// DefaultCachePath returns the calibration cache file location: the
// REPRO_CALIBRATION environment variable when set, else a file under
// the user cache directory, else under the system temp directory.
func DefaultCachePath() string {
	if p := os.Getenv(EnvCachePath); p != "" {
		return p
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "repro-mttkrp", "calibration.json")
	}
	return filepath.Join(os.TempDir(), "repro-mttkrp-calibration.json")
}

// Load reads and validates a cached calibration. Any defect — missing
// file, truncated or malformed JSON, a version or key mismatch, or
// non-positive rates — returns an error so the caller re-measures.
func Load(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("plan: calibration cache %s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("plan: calibration cache %s: %w", path, err)
	}
	return &c, nil
}

// validate checks a calibration is usable on this process's
// configuration.
func (c *Calibration) validate() error {
	if c.Version != calibrationVersion {
		return fmt.Errorf("version %d, want %d", c.Version, calibrationVersion)
	}
	if c.Key != Key() {
		return fmt.Errorf("stale key %q (machine is %q)", c.Key, Key())
	}
	if c.GOMAXPROCS < 1 {
		return fmt.Errorf("bad GOMAXPROCS %d", c.GOMAXPROCS)
	}
	for name, v := range map[string]float64{"flops_simd": c.FlopsSIMD, "stream_simd": c.StreamSIMD} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("non-positive rate %s = %g", name, v)
		}
	}
	if c.CacheWords < 1<<10 {
		return fmt.Errorf("implausible cache budget %d words", c.CacheWords)
	}
	return nil
}

// Save writes the calibration to path, creating parent directories.
func (c *Calibration) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadOrMeasure returns the cached calibration when it is valid for
// this machine, and otherwise runs the startup micro-benchmark and
// best-effort rewrites the cache. It never fails: a corrupt or stale
// cache file triggers silent re-calibration, and an unwritable cache
// path only costs the next process a re-measurement.
func LoadOrMeasure(path string) *Calibration {
	if c, err := Load(path); err == nil {
		return c
	}
	c := Measure()
	_ = c.Save(path) // best-effort: a read-only cache dir is not an error
	return c
}

// Measure runs the one-shot startup micro-benchmark (~tens of
// milliseconds): the single-worker GEMM flop rate and stream bandwidth
// on the active dispatch path and, when GOMAXPROCS > 1, the fanout
// section overhead. Implausible timer readings fall back to Default()
// constants so the planner always has positive rates to divide by.
//
//repro:ignore determinism startup measurement: wall-clock timing calibrates the cost model, it never feeds a kernel
func Measure() *Calibration {
	c := Default()
	c.Key = Key()
	maxW := runtime.GOMAXPROCS(0)
	c.GOMAXPROCS = maxW

	b := newMicrobench()
	if f, s := b.rates(); f > 0 && s > 0 {
		c.FlopsSIMD, c.StreamSIMD = f, s
	}
	if maxW > 1 {
		if ns := b.spawnNs(maxW); ns > 0 {
			c.SpawnNs = ns
		}
	}
	return c
}

// Default returns conservative fallback constants (roughly a 1 GFLOP/s
// core moving 4x10^8 words/s, and a 5 µs fanout section) used when
// measurement is impossible or yields implausible readings. The key
// is empty so a Default is never mistaken for a measured cache entry.
func Default() *Calibration {
	return &Calibration{
		Version:    calibrationVersion,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		FlopsSIMD:  1e9,
		StreamSIMD: 4e8,
		SpawnNs:    5000,
		CacheWords: defaultCacheWords,
	}
}

// microbench owns the operand buffers of the measurement loops, sized
// so each timed region runs a few milliseconds on a ~1 GFLOP/s core
// while streaming well past any L2.
type microbench struct {
	a, bb, cc []float64 // GEMM operands: a is gm x gk, bb gm x gn, cc gk x gn
	sx, sy    []float64 // stream operands
}

const (
	gemmM     = 4096    // shared (contiguous) contraction extent of the timed GemmTN
	gemmK     = 32      // rows of C
	gemmN     = 16      // columns of C
	streamLen = 1 << 20 // 8 MiB per operand: past L2, bandwidth-bound
)

func newMicrobench() *microbench {
	b := &microbench{
		a:  make([]float64, gemmM*gemmK),
		bb: make([]float64, gemmM*gemmN),
		cc: make([]float64, gemmK*gemmN),
		sx: make([]float64, streamLen),
		sy: make([]float64, streamLen),
	}
	for i := range b.a {
		b.a[i] = 1.0 / float64(i+1)
	}
	for i := range b.bb {
		b.bb[i] = 1.0 / float64(i+2)
	}
	for i := range b.sx {
		b.sx[i] = float64(i%7) + 0.5
	}
	return b
}

// rates times the GEMM and stream loops on one worker and returns
// (flops/sec, words/sec); zero when the timer misbehaves.
//
//repro:ignore determinism startup measurement: wall-clock timing calibrates the cost model, it never feeds a kernel
func (b *microbench) rates() (flopRate, wordRate float64) {
	const reps = 3
	gemmFlops := 2.0 * gemmM * gemmK * gemmN
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		linalg.GemmTN(b.cc, b.a, b.bb, gemmM, gemmK, gemmN, 1)
		if dt := time.Since(t0).Seconds(); dt < best {
			best = dt
		}
	}
	if best > 0 && !math.IsInf(best, 1) {
		flopRate = gemmFlops / best
	}
	// Stream: axpy reads two operands and writes one — 3 words per
	// element.
	streamWords := 3.0 * streamLen
	best = math.Inf(1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		simd.Axpy(b.sy, b.sx, 1.000001)
		if dt := time.Since(t0).Seconds(); dt < best {
			best = dt
		}
	}
	if best > 0 && !math.IsInf(best, 1) {
		wordRate = streamWords / best
	}
	return flopRate, wordRate
}

// noopTask is a fanout task whose chunks do nothing.
type noopTask struct{}

func (noopTask) Chunk(_, _ int) {}

// spawnNs times an empty fanout section at `workers` slots (waking the
// parked helpers and joining them) — the fixed price the planner
// charges any parallel engine pass.
//
//repro:ignore determinism startup measurement: wall-clock timing calibrates the cost model, it never feeds a kernel
func (b *microbench) spawnNs(workers int) float64 {
	const reps = 64
	fanout.Run(noopTask{}, workers, workers) // grow the pool first
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		fanout.Run(noopTask{}, workers, workers)
	}
	return float64(time.Since(t0).Nanoseconds()) / reps
}

// Seconds converts a streaming-model cost into predicted wall-clock
// seconds at the given worker count: the single-worker time (flops at
// the calibrated flop rate plus words at the calibrated bandwidth)
// divided by the workers, plus the fanout section overhead for a
// parallel pass.
func (c *Calibration) Seconds(words, flops float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	t := (flops/c.FlopsSIMD + words/c.StreamSIMD) / float64(workers)
	if workers > 1 {
		t += c.SpawnNs * 1e-9
	}
	return t
}
