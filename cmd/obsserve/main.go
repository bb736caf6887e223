// Command obsserve runs an instrumented MTTKRP workload in a loop and
// serves live observability over HTTP: Prometheus text-exposition
// metrics on /metrics (iteration counters and latency histograms, the
// obs counter totals, per-phase time, and the measured/bound ratio),
// a /healthz liveness probe, the standard net/http/pprof endpoints, an
// optional runtime/trace capture, and the internal/obs report as JSON.
// It is the interactive companion to the -obs flags on the batch
// commands — point a Prometheus scraper, a profiler, or a dashboard at
// a long-running engine loop instead of rerunning one-shot
// measurements.
//
// The server shuts down gracefully: SIGINT or SIGTERM stops the
// workload loop, drains in-flight requests through http.Server.Shutdown
// (bounded by a five-second timeout), and the final report still
// prints.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/healthz       liveness probe ("ok")
//	/report        current obs report joined against the Thm 4.1 bound
//	/spans         the flight-recorder timeline as Chrome trace JSON
//	/reset         zero the collector and start a fresh flight recorder
//	/debug/pprof/  net/http/pprof profiles
//
// Usage:
//
//	obsserve -addr localhost:6060 -dims 64,64,64 -r 16 -algo tree
//	obsserve -dims 32,32,32 -r 8 -duration 10s -trace trace.out
//	obsserve -addr localhost:0 -once     # CI: self-scrape and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/trace"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dimtree"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/metrics"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:6060", "HTTP listen address (host:0 picks a free port)")
	dimsFlag := flag.String("dims", "32,32,32", "tensor dimensions")
	r := flag.Int("r", 8, "rank R")
	mode := flag.Int("mode", 0, "MTTKRP mode for -algo fast")
	algo := flag.String("algo", "fast", "looped workload: fast (KRP-splitting kernel) | tree (dimension-tree all-modes)")
	workers := flag.Int("workers", 0, "engine goroutines (0 = package default)")
	m := flag.Int64("m", 512, "fast memory words for the joined Thm 4.1 bound")
	duration := flag.Duration("duration", 0, "stop after this long (0 = run until signaled)")
	once := flag.Bool("once", false, "run a few iterations, scrape own /healthz and /metrics, then exit")
	traceOut := flag.String("trace", "", "write a runtime/trace capture to this file")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	dims, err := parseDims(*dimsFlag)
	if err != nil {
		fatal(err)
	}
	if *mode < 0 || *mode >= len(dims) {
		fatal(fmt.Errorf("mode %d out of range", *mode))
	}
	if *algo != "fast" && *algo != "tree" {
		fatal(fmt.Errorf("unknown -algo %q (want fast or tree)", *algo))
	}
	inst, err := workload.Generate(workload.Spec{Dims: dims, R: *r, Seed: *seed})
	if err != nil {
		fatal(err)
	}

	col := obs.New(0)
	obs.Enable(col)
	defer obs.Disable()
	// The flight recorder backs /spans and the flight-events gauge.
	reset := func() {
		col.Reset()
		flight.Enable(flight.New(0, 0))
	}
	reset()
	defer flight.Disable()

	buildReport := func() *obs.Report {
		rep := obs.NewReport("obsserve", *algo, dims, *r, *mode,
			obs.Machine{M: *m, Workers: linalg.ResolveWorkers(*workers)})
		rep.FillFromCollector(col)
		rep.JoinSeqBounds(float64(*m))
		return rep
	}

	// The metrics registry exposes the loop's own counters plus
	// scrape-time views over the obs collector and the joined bound.
	reg := metrics.NewRegistry()
	iterations := reg.Counter("repro_obsserve_iterations_total",
		"Engine passes completed by the workload loop.")
	iterSeconds := reg.Histogram("repro_obsserve_iteration_seconds",
		"Wall-clock latency of one engine pass.",
		[]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1},
		"algo", *algo)
	totals := func(pick func(obs.Totals) int64) func() float64 {
		return func() float64 { return float64(pick(col.Totals())) }
	}
	reg.CounterFunc("repro_obs_words_total",
		"Streaming-model operand words moved by instrumented kernels.",
		totals(func(t obs.Totals) int64 { return t.WordsRead }), "kind", "read")
	reg.CounterFunc("repro_obs_words_total", "",
		totals(func(t obs.Totals) int64 { return t.WordsWritten }), "kind", "written")
	reg.CounterFunc("repro_obs_flops_total",
		"Floating-point operations by instrumented kernels.",
		totals(func(t obs.Totals) int64 { return t.Flops }))
	reg.CounterFunc("repro_obs_comm_words_total",
		"Simulated collective words.",
		totals(func(t obs.Totals) int64 { return t.CommSent }), "dir", "sent")
	reg.CounterFunc("repro_obs_comm_words_total", "",
		totals(func(t obs.Totals) int64 { return t.CommRecv }), "dir", "recv")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		phase := p.String()
		stat := func(pick func(obs.PhaseStat) float64) func() float64 {
			return func() float64 {
				for _, s := range col.PhaseStats() {
					if s.Phase == phase {
						return pick(s)
					}
				}
				return 0
			}
		}
		reg.CounterFunc("repro_obs_phase_seconds_total",
			"Time spent inside each obs phase.",
			stat(func(s obs.PhaseStat) float64 { return float64(s.Nanos) / 1e9 }), "phase", phase)
		reg.CounterFunc("repro_obs_phase_spans_total",
			"Spans recorded per obs phase.",
			stat(func(s obs.PhaseStat) float64 { return float64(s.Count) }), "phase", phase)
	}
	reg.GaugeFunc("repro_obs_bound_ratio",
		"Measured words over the best applicable lower bound (0 = vacuous).",
		func() float64 { return buildReport().Ratio("seq-best") }, "bound", "seq-best")
	reg.GaugeFunc("repro_flight_events_total",
		"Events recorded by the active flight recorder.",
		func() float64 { return float64(flight.Rec().TotalCount()) })

	mux := http.DefaultServeMux // net/http/pprof registers here
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := buildReport().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := flight.Rec().WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/reset", func(w http.ResponseWriter, req *http.Request) {
		reset()
		fmt.Fprintln(w, "collector and flight recorder reset")
	})

	// Listen before announcing so -addr host:0 resolves to a concrete
	// port (the -once self-scrape and CI both depend on it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("obsserve: %s workload dims=%v R=%d on http://%s (/metrics /healthz /report /spans /reset /debug/pprof/)\n",
		*algo, dims, *r, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "obsserve: trace close:", err)
			}
		}()
		fmt.Printf("obsserve: runtime/trace capture -> %s\n", *traceOut)
	}

	// The measured loop. Warm buffers outside the loop so the collector
	// sees steady-state behavior (allocs stay flat after the reset).
	// Every pass feeds the iteration counter and latency histogram; the
	// loop ends on the -duration deadline, a shutdown signal, or (with
	// -once) after a few passes.
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	iters := 0
	runLoop := func(pass func()) {
		for ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)) {
			t0 := time.Now()
			pass()
			iterSeconds.Observe(time.Since(t0).Seconds())
			iterations.Inc()
			iters++
			if *once && iters >= 3 {
				return
			}
		}
	}
	switch *algo {
	case "fast":
		ws := kernel.NewWorkspace(dims, *r, *mode)
		b := tensor.NewMatrix(dims[*mode], *r)
		kernel.FastInto(b, inst.X, inst.Factors, *mode, *workers, ws)
		reset()
		runLoop(func() { kernel.FastInto(b, inst.X, inst.Factors, *mode, *workers, ws) })
	case "tree":
		eng := dimtree.NewEngine(*workers)
		res := &dimtree.Result{}
		eng.AllModesInto(res, inst.X, inst.Factors)
		reset()
		runLoop(func() { eng.AllModesInto(res, inst.X, inst.Factors) })
	}

	if *once {
		if err := selfScrape("http://" + ln.Addr().String()); err != nil {
			fatal(err)
		}
	}

	// Graceful drain: stop accepting, finish in-flight requests, join
	// the server goroutine. ErrServerClosed is the clean-shutdown path.
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "obsserve: shutdown:", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		fatal(err)
	}

	fmt.Printf("obsserve: %d iterations; final report:\n", iters)
	buildReport().Format(os.Stdout)
}

// selfScrape hits the command's own /healthz, /spans and /metrics
// endpoints over real HTTP, validates the /spans trace, and echoes the
// metrics payload, so CI exercises the full scrape path with one
// invocation.
func selfScrape(base string) error {
	body, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	if strings.TrimSpace(body) != "ok" {
		return fmt.Errorf("healthz = %q, want ok", strings.TrimSpace(body))
	}
	body, err = get(base + "/spans")
	if err != nil {
		return err
	}
	if _, err := flight.Validate([]byte(body)); err != nil {
		return fmt.Errorf("/spans: %w", err)
	}
	body, err = get(base + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(body, "# TYPE repro_obsserve_iterations_total counter") {
		return fmt.Errorf("metrics scrape missing iteration counter:\n%s", body)
	}
	fmt.Print(body)
	return nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //repro:besteffort read-only response body
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("need at least 2 dimensions, got %q", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	return dims, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsserve:", err)
	os.Exit(2)
}
