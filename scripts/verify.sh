#!/bin/sh
# Tier-1 verify recipe, split into named stages so local runs and CI jobs
# share one source of truth (.github/workflows/ci.yml calls the same stages).
#
# Usage: scripts/verify.sh [stage...]
#
# Stages:
#   fmt    gofmt check; fails listing the offending files
#   vet    go vet
#   build  go build
#   test   go test
#   race   go test -race, then the lock-free ground-point memo's tests again
#          at -count=5 -cpu 1,2,4: a CAS-published table is exactly the code
#          one -race pass at one GOMAXPROCS can miss; then the resolve entry
#          points' schedule-sensitive tests at -count=3 -cpu 1,2,4: Resolve,
#          ResolveAt (inline and applier) and ResolveAll share one pipeline
#          body, so it should see more than one GOMAXPROCS too
#   benchmod  vet and test the repository benchmark (bench/), a nested module
#          the root `go test ./...` never sees
#   smoke  CLI run asserting the telemetry artifact parses with non-zero
#          request counters
#   observe  full observability smoke: a backgrounded run with the live
#          introspection endpoint is scraped mid-flight (/healthz /metrics
#          /series /traces), then the windowed-series artifact
#          (TELEMETRY_series.json) is checked for the delta-sum invariant
#          against the metrics snapshot and the Perfetto trace for loadable
#          shape
#   staticcheck  honnef.co/go/tools staticcheck when the binary is on PATH
#          (skipped with a notice otherwise — the container image does not
#          bake it in; CI installs it)
#   bench  single-iteration benchmark sweep plus the parallel-engine
#          throughput artifact (BENCH_parallel.json), the resolve
#          acceleration artifact (BENCH_resolve.json: naive vs accelerated
#          req/s and allocs/op), the fault-injection sweep artifact
#          (BENCH_resilience.json: availability, p99 inflation and source
#          mix vs failure fraction), the sweep-engine artifact
#          (BENCH_sweep.json: incremental vs fresh steps/sec, allocs per
#          steady-state advance, output-equivalence flag), the traffic
#          engine artifact (BENCH_traffic.json: a million-user streaming
#          day — sustained req/s, serving mix, latency percentiles), and
#          the serving-daemon artifact (BENCH_serve.json: closed-loop
#          throughput vs workers under a live sweeper, steady-state
#          allocs/req, deterministic-replay flag, epoch-swap latency)
#   scale  mega-constellation scale sweep artifact (BENCH_scale.json:
#          snapshot-build time, sweep steps/sec and allocations, and resolve
#          throughput vs satellite count; -fast keeps the smallest two scale
#          points so the CI gate stays quick)
#   serve  daemon smoke: boot cmd/spacecdnd with a fast sweeper, self-drive
#          an HTTP loadgen burst, assert clean shutdown and well-formed
#          serve counters (requests, epoch swaps, latency histogram) in the
#          exported telemetry
#   lifecycle  content lifecycle artifact (BENCH_lifecycle.json: serve mix
#          under the TTL class mix x churn x purge sweep, flash-crowd
#          coalescing reduction, purge-flood convergence windows, and the
#          disabled-path identity flag), plus an instrumented run whose
#          telemetry is checked for the lifecycle counters (bench runs this
#          stage too)
#   benchdiff  bench-regression gate: compares every BENCH_*.json against
#          the committed bench_baselines.json tolerance bands (runs the
#          bench stage first if artifacts are missing)
#
# No arguments runs the full local gate: fmt vet build staticcheck test
# benchmod race smoke observe.
# The script is non-interactive and exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

stage_fmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
}

stage_vet() {
	go vet ./...
}

stage_build() {
	go build ./...
}

stage_staticcheck() {
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	else
		echo "staticcheck not installed; skipping (CI runs it)"
	fi
}

stage_test() {
	go test ./...
}

stage_race() {
	go test -race ./...
	go test -race -count=5 -cpu 1,2,4 -run 'Visib|GroundMemo' ./internal/constellation
	go test -race -count=3 -cpu 1,2,4 -run 'ResolveAt|Lifecycle|Applier|Stress' ./internal/spacecdn ./internal/serve
}

stage_benchmod() {
	(cd bench && go vet ./... && go test ./...)
}

stage_smoke() {
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go run ./cmd/spacecdn -exp workload -fast \
		-metrics-out "$out/metrics.json" -trace-sample 0.01 >/dev/null
	go run ./scripts/checkmetrics.go "$out/metrics.json"
}

stage_observe() {
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go build -o "$out/spacecdn" ./cmd/spacecdn
	# Background the run with a linger window so the scraper is guaranteed a
	# live endpoint even after the fast workload finishes.
	"$out/spacecdn" -exp workload -fast \
		-metrics-out "$out/metrics.json" -trace-sample 0.05 \
		-series-out TELEMETRY_series.json -trace-out "$out/trace.json" \
		-serve 127.0.0.1:0 -serve-linger 8s >"$out/run.log" 2>&1 &
	pid=$!
	go run ./scripts/scrape.go "$out/run.log" \
		/healthz ok \
		/metrics "" \
		/series windowNs \
		/traces traceEvents
	wait "$pid"
	go run ./scripts/checkmetrics.go "$out/metrics.json" TELEMETRY_series.json "$out/trace.json"
}

# run_bench regenerates one benchmark artifact: run_bench EXPERIMENT FILE.
# Every artifact goes through here so the invocation shape (fast, JSON,
# echoed to the log) stays uniform.
run_bench() {
	go run ./cmd/spacecdn -exp "$1" -fast -json >"$2"
	cat "$2"
}

stage_bench() {
	go test -bench=. -benchtime=1x -run '^$' .
	run_bench parallel-bench BENCH_parallel.json
	run_bench resolve-bench BENCH_resolve.json
	run_bench resilience BENCH_resilience.json
	run_bench sweep-bench BENCH_sweep.json
	run_bench traffic BENCH_traffic.json
	run_bench serve-bench BENCH_serve.json
	stage_lifecycle
}

stage_lifecycle() {
	# Two runs: a pure -json run for the artifact (mixing -metrics-out into
	# the same invocation would append its status line to stdout and corrupt
	# the JSON), then an instrumented run whose telemetry must carry the
	# lifecycle counters (purge propagation, coalescing, freshness serves).
	run_bench lifecycle BENCH_lifecycle.json
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go run ./cmd/spacecdn -exp lifecycle -fast \
		-metrics-out "$out/lifecycle-metrics.json" >/dev/null
	go run ./scripts/checkmetrics.go -lifecycle "$out/lifecycle-metrics.json"
}

stage_scale() {
	run_bench scale-bench BENCH_scale.json
}

stage_serve() {
	# Boot the daemon with a fast sweeper, let it drive itself with an HTTP
	# loadgen burst, and assert a clean shutdown (exit 0) plus well-formed
	# serve counters in the exported telemetry.
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go run ./cmd/spacecdnd -addr 127.0.0.1:0 -interval 5ms -cities 8 \
		-burst 600 -burst-workers 4 -burst-http -trace-sample 0.02 \
		-metrics-out "$out/serve-metrics.json"
	go run ./scripts/checkmetrics.go -serve "$out/serve-metrics.json"
}

stage_benchdiff() {
	# The gate needs fresh artifacts; regenerate when any is missing so a
	# bare `verify.sh benchdiff` works from a clean tree.
	for artifact in BENCH_parallel.json BENCH_resolve.json BENCH_resilience.json BENCH_sweep.json BENCH_traffic.json BENCH_serve.json BENCH_lifecycle.json; do
		if [ ! -f "$artifact" ]; then
			echo "benchdiff: $artifact missing; running bench stage first"
			stage_bench
			break
		fi
	done
	if [ ! -f BENCH_scale.json ]; then
		echo "benchdiff: BENCH_scale.json missing; running scale stage first"
		stage_scale
	fi
	go run ./scripts/benchdiff.go
}

stages="$*"
if [ -z "$stages" ]; then
	stages="fmt vet build staticcheck test benchmod race smoke observe"
fi

for stage in $stages; do
	case "$stage" in
	fmt | vet | build | staticcheck | test | benchmod | race | smoke | observe | bench | scale | serve | lifecycle | benchdiff) ;;
	*)
		echo "verify: unknown stage '$stage'" >&2
		exit 2
		;;
	esac
	echo "== $stage =="
	"stage_$stage"
done

echo "verify: OK"
