// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run drives one workload through the public entry
// points a user calls, with plan.Auto choosing the engine as the
// commands do under -engine auto, checks every result, and prints one
// JSON summary as its last line of output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	sh perfbench/run.sh --workload cp-dense --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with obs and flight
// disabled; --trace 1 measures the per-layer metrics instead. The
// workloads, their seeds and the layer-to-metric map are described in
// perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/simd"
)

const (
	// minSamples per worker setting: the p90 needs ten samples beyond it.
	minSamples = 100
	// setupReps is how many times a run sets up from scratch; setup_s
	// is their median.
	setupReps = 7
	// chunk is how long one worker setting runs before the loop switches
	// to the other, so both settings see the same machine conditions.
	chunk = 250 * time.Millisecond
	// buildDir holds everything the benchmark writes, relative to the
	// repository root it runs from.
	buildDir = ".bench_build"
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and checks.
type tally struct{ attempted, failed int }

func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Printf("FAIL %s: %v\n", what, err)
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: cp-dense | tucker-hooi | sparse-csf | cp-grid")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	calDir, err := os.MkdirTemp(buildDir, "calibration-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Best effort: a calibration file left under buildDir is harmless.
	defer func() { _ = os.RemoveAll(calDir) }()
	if calDir, err = filepath.Abs(calDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	printEnv()
	t0 := time.Now()
	b, err := def.generate(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate:", err)
		return 1
	}
	fmt.Printf("workload: %s seed=%d generated in %.3fs\n", def.name, *seed, time.Since(t0).Seconds())

	budget := time.Duration(*seconds) * time.Second
	var sum *summary
	if *trace == 0 {
		sum, err = endToEnd(b, budget, calDir)
	} else {
		sum, err = perLayer(b, budget, calDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printEnv prints what a reader needs to reproduce the run.
func printEnv() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d\n",
		commit, sourceDigest(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("env: simd=%q REPRO_NOSIMD=%q calibration_key=%q\n",
		simd.Describe(), os.Getenv("REPRO_NOSIMD"), plan.Key())
}

// sourceDigest hashes go.mod and every .go file under the working
// directory, so a run from a checkout without git history still names
// the code it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _ = io.WriteString(h, path+"\x00") // hash writes never fail
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// side is one worker setting of the timed loop.
type side struct {
	workers, procs int
	label          string
	ms             []float64
	allocBytes     uint64
}

// endToEnd measures the end-to-end metrics with obs and flight
// disabled (their default state).
func endToEnd(b bench, budget time.Duration, calDir string) (*summary, error) {
	var t tally
	var ref outcome
	var setups []float64
	var plans []string
	for i := 0; i < setupReps; i++ {
		calPath := filepath.Join(calDir, fmt.Sprintf("setup-%d.json", i))
		runtime.GC()
		t0 := time.Now()
		err := b.setup(calPath)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out := b.result()
		if i == 0 {
			ref = out
		} else if out.digest != ref.digest {
			t.record("setup warm-up op", fmt.Errorf("result differs from the first setup's"))
		}
		plans = append(plans, b.planLine())
	}
	for i, p := range plans {
		if p != "" {
			fmt.Printf("plan[%d]: %s\n", i, p)
		}
	}
	for _, p := range plans {
		if p != plans[len(plans)-1] {
			fmt.Println("plan: CHANGED between setups of this run; ops use the last one")
			break
		}
	}

	procs := runtime.GOMAXPROCS(0)
	all := &side{workers: procs, procs: procs, label: "all-core op", ms: make([]float64, 0, 1<<12)}
	one := &side{workers: 1, procs: 1, label: "single-threaded op", ms: make([]float64, 0, 1<<12)}
	// Every op's result must be bitwise equal to the all-core warm-up
	// op's, which makes every single-threaded result equal to every
	// all-core one.
	check := func(err error) error {
		if err != nil {
			return err
		}
		if b.result().digest != ref.digest {
			return fmt.Errorf("result is not bitwise equal to the all-core warm-up result")
		}
		return nil
	}
	// Collect the set-up garbage and return it to the OS now, so the
	// runtime's background scavenging does not run during the first ops.
	debug.FreeOSMemory()
	start := time.Now()
	hardStop := 2*budget + 30*time.Second
	first := true
	for {
		elapsed := time.Since(start)
		enough := len(all.ms) >= minSamples && len(one.ms) >= minSamples
		if (elapsed >= budget && enough) || elapsed >= hardStop {
			break
		}
		for _, s := range []*side{all, one} {
			if elapsed >= budget && len(s.ms) >= minSamples {
				continue
			}
			runtime.GOMAXPROCS(s.procs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cs := time.Now()
			for time.Since(cs) < chunk {
				t0 := time.Now()
				err := b.op(s.workers)
				s.ms = append(s.ms, float64(time.Since(t0).Nanoseconds())/1e6)
				t.record(s.label, check(err))
				if first {
					first = false
					t.record("oracle check of the first op", b.verify())
				}
			}
			runtime.ReadMemStats(&after)
			if s == all {
				// The chunk's allocations are its ops' plus their result
				// digests' (a few hundred bytes).
				s.allocBytes += after.TotalAlloc - before.TotalAlloc
			}
		}
		runtime.GOMAXPROCS(procs)
	}
	runtime.GOMAXPROCS(procs)
	t.record("oracle check of the last op", b.verify())

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled workspaces do not make the
	// live heap depend on when the last collection ran.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)

	m := map[string]metric{
		"op_ms.p50":       {median(all.ms), "ms"},
		"op_ms_1core.p50": {median(one.ms), "ms"},
		"setup_s":         {median(setups), "s"},
		"heap_live_mb":    {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
		"alloc_kb_per_op": {float64(all.allocBytes) / float64(len(all.ms)) / 1024, "KiB"},
	}
	fmt.Printf("samples: all-core n=%d (workers=%d gomaxprocs=%d), 1-core n=%d (workers=1 gomaxprocs=1), setups n=%d\n",
		len(all.ms), all.workers, procs, len(one.ms), len(setups))
	for _, s := range []*side{all, one} {
		if len(s.ms) < minSamples {
			fmt.Printf("note: only %d samples at gomaxprocs=%d; the p90 has fewer than ten beyond it\n", len(s.ms), s.procs)
		}
	}
	printMetrics(m)
	// Printed but not graded: the tails swing with the shared host's
	// load more than the medians do, and the rest are not defined on
	// every workload, or are exact counts, or are zero (see README.md).
	fmt.Printf("metric op_ms.p90 = %.6g ms (n=%d)\n", quantile(all.ms, 0.9), len(all.ms))
	fmt.Printf("metric op_ms_1core.p90 = %.6g ms (n=%d)\n", quantile(one.ms, 0.9), len(one.ms))
	switch bb := b.(type) {
	case *cpDense, *tuckerBench:
		fmt.Printf("metric fit_final = %.10f fit\n", ref.fit)
	case *gridBench:
		fmt.Printf("metric fit_final = %.10f fit\n", ref.fit)
		fmt.Printf("metric comm_words_max = %d words (computed, exact)\n", ref.commWords)
		fmt.Printf("metric comm_words_over_bound = %.4f ratio (MTTKRP words / ParBest x %d MTTKRPs)\n",
			float64(ref.mttkrpWords)/bb.parBound(), gridSweeps*3)
	}
	fmt.Printf("metric failed_frac = %.4f (%d of %d ops and checks)\n",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return &summary{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %s = %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
