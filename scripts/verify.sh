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
#   race   go test -race, then the lock-free pieces' tests again at -count=5
#          -cpu 1,2,4 — the ground-point memo and the ground paths and PoP
#          fields lsn keeps in its entries, and the path-tree table, the
#          SPTree frontier
#          rule-out and the striped counters/histograms of the shared-nothing
#          read path: a CAS-published table is exactly the code one -race
#          pass at one GOMAXPROCS can miss; then the resolve
#          entry points' schedule-sensitive tests at -count=3 -cpu 1,2,4:
#          Resolve, ResolveAt (inline and applier) and ResolveAll share one
#          pipeline body, so it should see more than one GOMAXPROCS too; and
#          the daemon's connection tests (in-place /resolve loop, handover to
#          net/http, Close) at -count=3 -cpu 1,2,4; and the measurement
#          environment's snapshot table (first store wins under concurrent
#          callers) at -count=10 -cpu 1,2,4
#   fuzz   10 s of FuzzResolveQuery: the in-place /resolve query parser
#          against url.ParseQuery and the coordinate check; then 10 s of
#          FuzzVisibility: the grid-backed Visible/BestVisible of a
#          fresh snapshot and of an advanced sweep cursor against their full
#          scans, over random Walker shells, instants and raw ground-point
#          literals; then 10 s of FuzzGroundMemo: point sequences that collide
#          in the ground-point memo's table, where BestVisible must equal its
#          scan and the memoized lsn ResolvePath the exhaustive
#          ResolvePathReference, on a fresh snapshot and on a sweep cursor,
#          and lsn ResolveGround under a random dead-satellite set must equal
#          the reference over the masked view or fail over;
#          then 10 s of FuzzSPTree: random graphs with tied weights, where the
#          lazy one- and multi-source SPTree and the guided search must equal
#          a full Dijkstra; then 10 s of FuzzSweep: random Walker shells,
#          starts, steps and Advance/AdvanceTo patterns, where the ISL graph
#          of a sweep cursor (driven through ObserveCursor) and of a masked
#          view built from it must equal a fresh snapshot's bit for bit
#          (50 s in all)
#   determinism  build cmd/spacecdn once, run every experiment (-exp all
#          -json) and the two fault-plan experiments on their own (-exp
#          resilience -json, -exp lifecycle -json) at -workers 1 and at
#          -workers 4, and require byte-identical output for each
#   benchmod  vet and test the repository benchmark (bench/), a nested module
#          the root `go test ./...` never sees
#   smoke  CLI run asserting the telemetry artifact parses with non-zero
#          request counters
#   observe  full observability smoke: a backgrounded run with the live
#          introspection endpoint is scraped mid-flight (/healthz /metrics
#          /series /traces), then the windowed-series artifact
#          (TELEMETRY_series.json) is checked for the delta-sum invariant
#          against the metrics snapshot
#   staticcheck  honnef.co/go/tools staticcheck when the binary is on PATH
#          (skipped with a notice otherwise — the container image does not
#          bake it in; CI installs it)
#   bench  single-iteration smoke of the root package's Go benchmarks (they
#          must still run; the numbers are measured by bench/, see
#          bench/README.md)
#   serve  daemon smoke on the built binary: start cmd/spacecdnd in the
#          background with a fast sweeper, drive /healthz, /resolve and
#          /metrics over real sockets, send SIGTERM, require exit 0 and
#          well-formed serve counters (requests, epoch swaps, latency
#          histogram) in the telemetry it exports on the way out
#   lifecycle  instrumented run of the lifecycle experiment whose telemetry
#          is checked for the lifecycle counters (purge propagation,
#          coalescing, freshness serves)
#   examples  go run every examples/*/ main; fails on the first non-zero exit
#          and prints that example's output
#
# The deterministic experiment outputs (traffic, resilience, lifecycle) are
# held by `go test`: internal/experiments TestGoldenExperiments against
# internal/experiments/testdata/golden.json.
#
# No arguments runs the full local gate: fmt vet build staticcheck test
# determinism benchmod race fuzz smoke observe examples.
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
	go test -race -count=5 -cpu 1,2,4 -run 'Visib|TestGroundMemo' ./internal/constellation
	go test -race -count=5 -cpu 1,2,4 -run 'GroundPathMemo|FieldPublish' ./internal/lsn
	go test -race -count=5 -cpu 1,2,4 -run 'PathTree|SPTree|LazyTreeConcurrent|Striped|Histogram|Counter' \
		./internal/routing ./internal/constellation ./internal/telemetry ./internal/parallel
	go test -race -count=3 -cpu 1,2,4 -run 'ResolveAt|Lifecycle|Applier|Stress' ./internal/spacecdn ./internal/serve
	go test -race -count=3 -cpu 1,2,4 -run 'FastPath|Handover|Close' ./internal/serve
	go test -race -count=10 -cpu 1,2,4 -run 'SnapshotSharedUnderConcurrency' ./internal/measure
}

stage_determinism() {
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go build -o "$out/spacecdn" ./cmd/spacecdn
	for exp in all resilience lifecycle; do
		"$out/spacecdn" -exp "$exp" -json -workers 1 >"$out/w1.json"
		"$out/spacecdn" -exp "$exp" -json -workers 4 >"$out/w4.json"
		if ! cmp "$out/w1.json" "$out/w4.json"; then
			echo "-exp $exp -json differs between -workers 1 and -workers 4" >&2
			exit 1
		fi
	done
}

stage_fuzz() {
	go test -run '^$' -fuzz FuzzResolveQuery -fuzztime 10s ./internal/serve
	go test -run '^$' -fuzz FuzzVisibility -fuzztime 10s ./internal/constellation
	go test -run '^$' -fuzz FuzzGroundMemo -fuzztime 10s ./internal/constellation
	go test -run '^$' -fuzz FuzzSPTree -fuzztime 10s ./internal/routing
	go test -run '^$' -fuzz FuzzSweep -fuzztime 10s ./internal/constellation
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
		-series-out TELEMETRY_series.json \
		-serve 127.0.0.1:0 -serve-linger 8s >"$out/run.log" 2>&1 &
	pid=$!
	go run ./scripts/scrape.go "$out/run.log" \
		/healthz ok \
		/metrics "" \
		/series windowNs \
		/traces rttNs
	wait "$pid"
	go run ./scripts/checkmetrics.go "$out/metrics.json" TELEMETRY_series.json
}

stage_bench() {
	go test -bench=. -benchtime=1x -run '^$' .
}

stage_lifecycle() {
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go run ./cmd/spacecdn -exp lifecycle -fast \
		-metrics-out "$out/lifecycle-metrics.json" >/dev/null
	go run ./scripts/checkmetrics.go -lifecycle "$out/lifecycle-metrics.json"
}

stage_serve() {
	# The binary itself, not `go run`: the SIGTERM has to reach the daemon,
	# and the exit status has to be the daemon's.
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	go build -o "$out/spacecdnd" ./cmd/spacecdnd
	# Epochs swap every 5 ms but advance sim time by 1 ms, so the sky the
	# workload was placed under is still the sky the requests below see.
	"$out/spacecdnd" -addr 127.0.0.1:0 -interval 5ms -step 1ms -cities 8 \
		-trace-sample 1 -metrics-out "$out/serve-metrics.json" >"$out/run.log" 2>&1 &
	pid=$!
	# Maputo is the workload's first city: srv-hot sits on its overhead
	# satellite, srv-warm is an ISL hop away, srv-cold only on the ground —
	# one request per serving source, which checkmetrics requires.
	maputo='/resolve?lat=-25.9692&lon=32.5732&iso2=MZ&obj='
	if ! go run ./scripts/scrape.go "$out/run.log" \
		/healthz ok \
		"${maputo}srv-hot" '"source":"overhead"' \
		"${maputo}srv-warm" '"source":"isl"' \
		"${maputo}srv-cold" '"source":"ground"' \
		/metrics serve_requests_total; then
		kill "$pid" 2>/dev/null || true
		cat "$out/run.log" >&2
		exit 1
	fi
	kill -TERM "$pid"
	if ! wait "$pid"; then
		echo "spacecdnd did not exit 0 on SIGTERM" >&2
		cat "$out/run.log" >&2
		exit 1
	fi
	go run ./scripts/checkmetrics.go -serve "$out/serve-metrics.json"
}

stage_examples() {
	out=$(mktemp -d)
	trap 'rm -rf "$out"' EXIT
	for dir in examples/*/; do
		echo "$dir"
		if ! go run "./$dir" >"$out/run.log" 2>&1; then
			cat "$out/run.log" >&2
			echo "example $dir exited non-zero" >&2
			exit 1
		fi
	done
}

stages="$*"
if [ -z "$stages" ]; then
	stages="fmt vet build staticcheck test determinism benchmod race fuzz smoke observe examples"
fi

for stage in $stages; do
	case "$stage" in
	fmt | vet | build | staticcheck | test | determinism | benchmod | race | fuzz | smoke | observe | bench | serve | lifecycle | examples) ;;
	*)
		echo "verify: unknown stage '$stage'" >&2
		exit 2
		;;
	esac
	echo "== $stage =="
	"stage_$stage"
done

echo "verify: OK"
