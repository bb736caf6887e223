#!/bin/sh
# CI gate: formatting, vet, the repo's own static-analysis suite
# (repolint: hotpath-alloc, determinism, float-eq, errcheck-lite, and
# the concurrency-contract analyzers goroutine-leak, waitgroup-misuse,
# channel-discipline, lock-order, workspace-aliasing — all nine are
# hard failures), the full test suite on the native dispatch and again
# under REPRO_NOSIMD=1 (scalar), a purego-tag build+test (the
# no-assembly configuration), then a race-detector pass over the fanout pool every
# parallel engine runs on (including its nested and concurrent section
# test), the packages with parallel accumulation and tree reductions
# (kernel, seq, par, dimtree, cpals — including the float32
# storage-path kernels in kernel and sparse) plus the blocked linear
# algebra and sparse layers they fan out into, and simnet, whose rank
# goroutines all count their traffic into the obs collector.
#
# The native dispatch binds the widest level the host has: AVX2+FMA on
# amd64 (plus the 512-bit GEMM tiles where CPUID reports AVX512F and
# the OS saves ZMM state), NEON on arm64. The GEMM and tile tests run
# every level the host binds in one process: the 512-bit tiles, the
# AVX2 kernels with the tiles unbound (simd.ForceNoTiles), and scalar.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
# Every Go file in the repository: the root package and its tests,
# cmd/, internal/, examples/ and the perfbench module. .bench_build/
# holds the benchmark's Go module cache and build scratch, not ours.
# gofmt only inspects .go files; the assembly kernels (*.s) under
# internal/simd are formatted by hand and are explicitly out of scope.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go vet (GOARCH=arm64) =="
# Cross-vet for arm64: compiles the NEON kernels' Go side and runs
# asmdecl over kernels_arm64.s, so the arm64 bindings (Dot2x4's two
# NEON Dot4 passes among them) are checked on an amd64-only host.
GOARCH=arm64 go vet ./...

echo "== go build =="
go build ./...

echo "== go vet (perfbench module) =="
# perfbench is its own module, so ./... above never compiles it; vet
# it here so a change to an API the benchmark reads fails CI.
(cd perfbench && go vet ./...)

echo "== go build -tags purego =="
# The purego tag compiles out every assembly kernel; the build must
# stay viable for ports with no .s files.
go build -tags purego ./...

echo "== repolint =="
go run ./cmd/repolint ./...

echo "== go test (native dispatch) =="
go test ./...

echo "== go bench smoke (GemmRoots, 1x) =="
# One pass of the per-layer GEMM benchmark (the workloads' root,
# calibration and TTM shapes) at -cpu 1,2, so it keeps compiling and
# running; its GFLOP/s are read from a longer run, not here.
go test -run '^$' -bench '^BenchmarkGemmRoots$' -benchtime 1x -cpu 1,2 . >/dev/null

echo "== go fuzz (SymEig, 10s) =="
# A short native fuzz pass over matrices with known spectra (dense
# Q diag Q^T, diagonal, Clement tridiagonal): eigenvalues, residual,
# orthogonality, descending order, untouched input.
go test -run '^$' -fuzz '^FuzzSymEig$' -fuzztime 10s ./internal/linalg

echo "== go fuzz (ModeGram, 10s) =="
# Random order 1-4 tensors with extents 1-40: every mode's symmetric
# Gram against the unfold oracle, exact symmetry, and 1 vs 3 workers
# bitwise.
go test -run '^$' -fuzz '^FuzzModeGram$' -fuzztime 10s ./internal/ttm

echo "== go fuzz (Chain, 10s) =="
# Random order 1-5 tensors with extents 1-9, ranks from 1 to each
# extent, any skip and a random contiguous mode range: a node
# contraction over every mode but the skip against ChainScalar, a tree
# node's range contraction against a TTMScalar loop, and every TreeInto
# leaf against ChainScalar with its skip, within a rounding tolerance
# scaled by the contraction length; 1 vs 3 workers bitwise.
go test -run '^$' -fuzz '^FuzzChain$' -fuzztime 10s ./internal/ttm

echo "== go fuzz (Decompose, 10s) =="
# Random order 1-5 tensors with extents 1-9, ranks from 1 to each
# extent and 1-3 HOOI sweeps: orthonormal factors, Decompose's core
# (the last tree leaf's TTM) and HOSVD's (the last truncation step)
# against ChainScalar of their factors within a rounding tolerance
# scaled by the contraction length, the model's fit equal to the last
# sweep's, and 1 vs 3 workers bitwise.
go test -run '^$' -fuzz '^FuzzDecompose$' -fuzztime 10s ./internal/tucker

echo "== go fuzz (Tucker DecomposeParallel, 10s) =="
# Random order 1-4 tensors with extents 1-9 on a grid with P at most the
# smallest extent, ranks from 1 to each extent and 1-3 HOOI sweeps at
# Tol -Inf from InitFactors: every rank's words and sends equal to the
# All-Reduce schedule, factors and core bitwise Decompose's at P = 1,
# orthonormal factors, the core against ChainScalar of the factors
# within a rounding tolerance scaled by the contraction length, and the
# model's fit equal to the last sweep's.
go test -run '^$' -fuzz '^FuzzDecomposeParallel$' -fuzztime 10s ./internal/tucker

echo "== go fuzz (CP-ALS DecomposeParallel, 10s) =="
# Random order 1-4 tensors with extents 1-9, sometimes all zero, on a
# grid with P at most the smallest extent, R 1-4 and 1-3 CP-ALS sweeps
# at Tol -Inf: no panic, an error on order-1 and zero tensors and on no
# well-posed input, every sweep's fit within 1e-6 of the sequential
# solver's where the normal equations are nonsingular and the fit is
# below 0.999, and every rank's words and sends equal to the schedule.
go test -run '^$' -fuzz '^FuzzDecomposeParallel$' -fuzztime 10s ./internal/cpals

echo "== go fuzz (CSF, 10s) =="
# Random order 2-4 COO tensors with extents 1-12, 0-300 entries with
# repeated coordinates, R 1-20 and any root: the FromCOO/ToCOO round
# trip against append-order duplicate sums, AllModes against the COO
# kernel, bitwise against the single-mode passes and across 1 vs 3
# workers, and the float32 value stream bitwise.
go test -run '^$' -fuzz '^FuzzCSF$' -fuzztime 10s ./internal/sparse

echo "== go fuzz (MTTKRP, 10s) =="
# Random order 1-5 tensors with extents 1-7, R 1-5, modes -2..N+1 and
# valid or broken factor sets (a factor dropped, a participating factor
# nil, wrong rows, mixed ranks): no facade call panics, each errors
# exactly when tensor.CheckFactors does, and valid calls agree with
# seq.Ref (MTTKRP, 1 vs 3 workers bitwise, every MTTKRPAllModes leaf,
# blocked SequentialMTTKRP) within a rounding tolerance scaled by the
# contraction length.
go test -run '^$' -fuzz '^FuzzMTTKRP$' -fuzztime 10s .

echo "== go fuzz (PlannedEngines, 10s) =="
# Random order 2-5 problems with extents 1-7, R 1-5, one mode or all
# modes, f64 or f32, dense, COO (0-300 entries with repeats) or Tucker
# ranks: every registered engine that supports the problem runs through
# Prepare/Run at 1 and 3 workers bitwise, and agrees with seq.Ref
# (fast, fast32, tree, csf, coo; on the densified tensor when sparse)
# or ttm.ChainScalar (ttm's core) within a rounding tolerance scaled by
# the contraction length; the planner picks one of them.
go test -run '^$' -fuzz '^FuzzPlannedEngines$' -fuzztime 10s ./internal/plan

echo "== go fuzz (flight Validate, 10s) =="
# A trace recorded by a small par.Stationary run and corrupted copies of
# it (fractional, string or huge pids, fractional tids, negative or
# fractional words, a truncated document): flight.Validate never
# panics, and every trace it accepts has integral pids and tids and a
# non-negative integral args.words on every comm slice.
go test -run '^$' -fuzz '^FuzzValidate$' -fuzztime 10s ./internal/obs/flight

echo "== go test (REPRO_NOSIMD=1 scalar dispatch) =="
# The identical suite must pass with the runtime override forcing the
# portable scalar kernels, proving the two paths are interchangeable.
REPRO_NOSIMD=1 go test ./...

echo "== go test -tags purego (simd + engine packages) =="
# Same contract for the compile-time opt-out on the layers that call
# the kernels, directly (ttm's Gram and plan call simd) or through
# linalg and ttm (tucker), and on the solvers whose tensor norm runs
# on simd.Dot (cpals, tucker) beside its scalar oracle (tensor).
go test -tags purego ./internal/simd/... ./internal/linalg/... ./internal/kernel/... ./internal/sparse/... ./internal/dimtree/... ./internal/ttm/... ./internal/plan/... ./internal/tucker/... ./internal/cpals/... ./internal/tensor/...

echo "== go test -race (engine packages) =="
go test -race ./internal/fanout/... ./internal/kernel/... ./internal/seq/... ./internal/par/... ./internal/dimtree/... ./internal/cpals/... ./internal/sparse/... ./internal/linalg/... ./internal/obs/... ./internal/comm/... ./internal/plan/... ./internal/ttm/... ./internal/tucker/... ./internal/simnet/...

echo "== instrumented smoke (obs bound ratios) =="
# The blocked algorithm must land within a small constant of the best
# sequential lower bound on a 32^3 cube at M=256 (measured 3.15x; gate
# at 4x), and the unblocked algorithm must be measurably worse (gate at
# >= 20x; measured 63x). cmd/mttkrp exits 3 if counters are zero, the
# bound is vacuous, or the ratio leaves the window.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/mttkrp -dims 32,32,32 -r 16 -mode 0 -algo blocked -m 256 \
	-obs -obs-json "$obsdir/blocked.json" -obs-maxratio 4
go run ./cmd/mttkrp -dims 32,32,32 -r 16 -mode 0 -algo unblocked -m 256 \
	-obs -obs-json "$obsdir/unblocked.json" -obs-minratio 20
go run ./cmd/mttkrp -dims 16,16,16 -r 8 -mode 1 -algo stationary -p 8 \
	-obs -obs-json "$obsdir/stationary.json" -obs-maxratio 4
# Algorithm 4 with the rank split: the search picks [4 1 2 2] here, so
# every rank all-gathers its tensor block over a P0-fiber of 4 before
# its factor gathers (measured/par-best 2.072).
go run ./cmd/mttkrp -dims 8,8,8 -r 64 -mode 1 -algo general -p 16 \
	-obs -obs-json "$obsdir/general.json" -obs-maxratio 4

echo "== trace smoke (flight recorder -> tracecheck) =="
# A parallel run must export a Chrome trace that round-trips as JSON
# and survives schema validation: known phases only, every Send flow
# paired with exactly one Recv flow (tracecheck exits nonzero
# otherwise). The shared-memory planned run exercises the engine-row
# export path and the planner's plan instant.
go run ./cmd/mttkrp -dims 16,16,16 -r 8 -mode 1 -algo stationary -p 8 \
	-trace "$obsdir/stationary-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/stationary-trace.json" >/dev/null
go run ./cmd/mttkrp -dims 8,8,8 -r 64 -mode 1 -algo general -p 16 \
	-trace "$obsdir/general-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/general-trace.json" >/dev/null
REPRO_CALIBRATION="$obsdir/calibration-trace.json" go run ./cmd/mttkrp \
	-dims 16,16,16 -r 8 -trace "$obsdir/fast-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/fast-trace.json" >/dev/null
# The Tucker command's HOOI sweeps emit the ttm-chain/gram/solve/fit
# phase spans; the exported trace must pass the same schema check.
REPRO_CALIBRATION="$obsdir/calibration-trace.json" go run ./cmd/tucker \
	-dims 16,16,16 -ranks 4,4,4 -iters 2 \
	-trace "$obsdir/tucker-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/tucker-trace.json" >/dev/null
# Both parallel solvers run every collective on simnet; each trace must
# pair every rank's Sends with their Recvs (784 flows for HOOI and 800
# for CP-ALS at this shape).
REPRO_CALIBRATION="$obsdir/calibration-trace.json" go run ./cmd/tucker \
	-dims 16,16,16 -ranks 4,4,4 -grid 2,2,2 -iters 2 \
	-trace "$obsdir/tucker-par-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/tucker-par-trace.json" >/dev/null
REPRO_CALIBRATION="$obsdir/calibration-trace.json" go run ./cmd/cpals \
	-dims 16,16,16 -rank 4 -grid 2,2,2 -iters 2 -tol -1 \
	-trace "$obsdir/cpals-par-trace.json" >/dev/null
go run ./cmd/tracecheck "$obsdir/cpals-par-trace.json" >/dev/null

echo "== metrics smoke (obsserve -once /metrics scrape) =="
# obsserve binds an ephemeral port, runs a few engine passes, scrapes
# its own /healthz, /spans and /metrics over real HTTP (exiting nonzero
# when the /spans trace fails flight.Validate), echoes the exposition
# text, and shuts the server down gracefully. The greps pin the scrape
# payload to the Prometheus text format and the flight-events gauge to
# the recorder that backs /spans.
go run ./cmd/obsserve -addr localhost:0 -dims 16,16,16 -r 4 -once \
	> "$obsdir/metrics.txt"
grep -q '^repro_obsserve_iterations_total 3$' "$obsdir/metrics.txt"
grep -q '^# TYPE repro_obsserve_iteration_seconds histogram$' "$obsdir/metrics.txt"
grep -q '^repro_flight_events_total [1-9]' "$obsdir/metrics.txt"

echo "== sparse smoke (measured words == hypergraph metric) =="
# cmd/sparsemttkrp exits nonzero when either the simulated network's or
# the obs collector's measured comm words deviate from the (lambda-1)
# connectivity metric, for both local engines — and, for -dtype f32,
# when the half-width storage does not halve the measured words.
go run ./cmd/sparsemttkrp -side 20 -nnz 1500 -r 4 -p 8 -engine csf >/dev/null
go run ./cmd/sparsemttkrp -side 20 -nnz 1500 -r 4 -p 8 -engine coo >/dev/null
go run ./cmd/sparsemttkrp -side 20 -nnz 1500 -r 4 -p 8 -engine csf -dtype f32 >/dev/null

echo "== planner smoke (auto engine selection) =="
# The cost-model planner is the default engine selector; it must
# calibrate from scratch (REPRO_CALIBRATION points into the temp dir
# so CI never reads or writes the user cache), produce a runnable
# plan, and surface the decision in the JSON report's "plan" block.
# The later runs exercise the calibration-cache hit path, a fixed
# engine (-algo fast), and the f32 storage path (planned as fast32).
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/mttkrp \
	-dims 32,32,32 -r 8 -mode 1 -obs-json "$obsdir/auto.json" >/dev/null
grep -q '"plan"' "$obsdir/auto.json"
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/mttkrp \
	-dims 32,32,32 -r 8 -mode 1 -algo fast > "$obsdir/fast.txt"
grep -q '^result: verified against reference kernel$' "$obsdir/fast.txt"
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/mttkrp \
	-dims 32,32,32 -r 8 -mode 1 -dtype f32 > "$obsdir/f32.txt"
grep -q 'engine=fast32 (planned)' "$obsdir/f32.txt"
grep -q '^result: verified against reference kernel$' "$obsdir/f32.txt"
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/cpals \
	-dims 24,24,24 -rank 4 -iters 3 -obs-json "$obsdir/auto-cpals.json" >/dev/null
grep -q '"plan"' "$obsdir/auto-cpals.json"
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/sparsemttkrp \
	-side 20 -nnz 1500 -r 4 -p 8 -obs-json "$obsdir/auto-sparse.json" >/dev/null
grep -q '"plan"' "$obsdir/auto-sparse.json"

echo "== multi-ttm bound smoke (measured/multittm ratios) =="
# Parallel Tucker must report its per-processor communication joined
# against the Multi-TTM memory-independent lower bounds; the ranks are
# chosen large enough that the bound is non-vacuous at P=8.
REPRO_CALIBRATION="$obsdir/calibration.json" go run ./cmd/tucker \
	-dims 32,32,32 -ranks 24,24,24 -grid 2,2,2 -iters 2 \
	-obs-json "$obsdir/tucker-par.json" >/dev/null
grep -q '"measured/multittm' "$obsdir/tucker-par.json"

echo "== parallel CP bound smoke (measured/par-best) =="
# Parallel CP-ALS must join its per-processor MTTKRP collective words
# against the Theorem 4.2/4.3 bound summed over the run's MTTKRPs
# (5 sweeps x 3 modes here: 12288 words against 15 x 394.1).
go run ./cmd/cpals -dims 64,64,64 -rank 8 -grid 2,2,2 -iters 5 -tol -1 \
	-obs-json "$obsdir/cpals-par.json" >/dev/null
grep -q '"measured/par-best"' "$obsdir/cpals-par.json"

echo "== benchmark archive gate (benchjson -compare) =="
# The archived planner snapshot must stay within tolerance of the
# archived simd snapshot on the benchmarks they share, and the TTM
# engine snapshot within tolerance of the planner snapshot.
go run ./cmd/benchjson -compare BENCH_2026-08-08-simd.json BENCH_2026-08-08-auto.json >/dev/null
go run ./cmd/benchjson -compare BENCH_2026-08-08-auto.json BENCH_2026-08-08-ttm.json >/dev/null

echo "ci: OK"
