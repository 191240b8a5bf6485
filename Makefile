GO ?= go

# staticcheck is pinned and run via `go run`, so no tool install is needed —
# but fetching it does need the module proxy. Offline environments (CI
# sandboxes, air-gapped machines) skip it with a notice instead of failing.
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci lint vet sddsvet staticcheck build test race smoke trace-smoke fault-smoke service-smoke diag-smoke shard-smoke bench bench-check bench-module

# CI runs the lint tier strictly: silently skipping a linter there would
# let findings land unreviewed.
ci: LINT_STRICT = 1
ci: lint build bench-module race smoke trace-smoke fault-smoke service-smoke diag-smoke shard-smoke bench-check

# Fast static tier: runs in seconds, ahead of the (90-minute) race tier.
# LINT_STRICT=1 turns the offline staticcheck skip into a hard failure.
LINT_STRICT ?= 0
lint: vet sddsvet staticcheck

vet:
	$(GO) vet ./...

# The project's own analyzer suite (determinism + hot-path contracts); see
# DESIGN.md §9 and `go run ./cmd/sddsvet -list`. The committed baseline
# makes known findings informational — the exit gates on new findings —
# and sddsvet.json is the machine-readable report CI publishes as an
# artifact (use -sarif for code-review ingestion).
sddsvet:
	$(GO) run ./cmd/sddsvet -baseline sddsvet.baseline -json-out sddsvet.json ./...

staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>/dev/null; then \
		echo "staticcheck: clean"; \
	else \
		status=$$?; \
		if $(GO) list -m honnef.co/go/tools@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
			echo "staticcheck: findings (exit $$status)"; exit $$status; \
		elif [ "$(LINT_STRICT)" = "1" ]; then \
			echo "staticcheck: module unavailable and LINT_STRICT=1; failing"; exit 1; \
		else \
			echo "staticcheck: module unavailable (offline?); skipping"; \
		fi; \
	fi

build:
	$(GO) build ./...

# The end-to-end benchmark (bench/) is its own module, so `go build ./...`
# never compiles it: vet and test it explicitly, so a harness change that
# breaks it fails here rather than at the next benchmark run. Offline-safe
# (the module depends only on this one, through a replace directive).
bench-module:
	$(GO) -C bench vet . && $(GO) -C bench test .

test:
	$(GO) test ./...

# Race instrumentation slows the full-scale cluster simulations well past
# the default 10m per-package test timeout; give them room.
race:
	$(GO) test -race -timeout 90m ./...

# A tiny end-to-end sddstables run: plans, simulates and renders every
# experiment at 5% scale on two apps through the parallel session engine.
smoke:
	$(GO) run ./cmd/sddstables -scale 0.05 -apps sar,madbench2 -progress=false

# Tracing end to end: a small traced run through sddsim, then sddsdiag
# validates the emitted bytes against the trace-event shape.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/sddsim -app madbench2 -policy history -scheduling \
		-scale 0.05 -procs 8 -trace "$$tmp/trace.json" >/dev/null && \
	$(GO) run ./cmd/sddsdiag "$$tmp/trace.json"

# Fault injection end to end: a short injected sweep writes a crash-safe
# journal, then a -resume rerun reloads every completed run and simulates
# nothing new — the round-trip that makes killed sweeps restartable.
fault-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/sddstables -experiment table3 -scale 0.05 -apps sar,hf \
		-faults 'read=0.02,net-drop=0.01,stall=0.01,seed=7' \
		-journal "$$tmp/sweep.journal" -progress=false >/dev/null && \
	$(GO) run ./cmd/sddstables -experiment table3 -scale 0.05 -apps sar,hf \
		-faults 'read=0.02,net-drop=0.01,stall=0.01,seed=7' \
		-journal "$$tmp/sweep.journal" -resume -progress=false >/dev/null

# Diagnostics capture end to end: a 1ms per-run deadline forces a timeout
# failure under -capture-dir, then sddsdiag validates the captured bundle
# (manifest hashes, trace shape, replayable request); a second pass runs the
# same sweep with capture enabled but no deadline and succeeds — capture on
# the success path must never perturb or fail a run.
diag-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	! $(GO) run ./cmd/sddsim -app sar -scale 0.05 -timeout 1ms \
		-capture-dir "$$tmp/diag" >/dev/null 2>&1 && \
	$(GO) run ./cmd/sddsdiag -dir "$$tmp/diag" && \
	id=$$(ls "$$tmp/diag" | sed -n 's/^bundle-//p' | head -n 1) && \
	$(GO) run ./cmd/sddsdiag -dir "$$tmp/diag" "$$id" && \
	$(GO) run ./cmd/sddstables -experiment table2 -scale 0.05 -apps sar \
		-capture-dir "$$tmp/diag2" -watchdog 1000000 -log "$$tmp/run.log" \
		-progress=false >/dev/null

# Service end to end: builds the real sddsd binary, starts it against a
# fresh store, submits a run over HTTP, polls /v1/status, checks
# /v1/doctor, and SIGTERMs for a clean drained exit.
service-smoke:
	$(GO) test -run TestServiceSmokeBinary -count=1 -v ./internal/service

# Sharded sweep end to end: builds the real sddsd and sddsworker binaries,
# starts a coordinator with a short lease TTL, leases a shard to a worker
# and SIGKILLs it mid-shard, then verifies a second worker picks up the
# requeued lease and the merged store is byte-identical to a direct
# single-process run of the same plan.
shard-smoke:
	$(GO) test -run TestShardSmokeBinary -count=1 -v ./internal/service

# Perf trajectory: engine microbenchmarks (steady-state schedule+fire, the
# container/heap baseline they are measured against) plus a fig12c-shape
# experiment, a full scheduled cluster run, and the compile-cache θ-sweep
# pair (cold inline compiles vs a warmed artifact cache), all with
# -benchmem, written as BENCH_sim.json (benchmark name → ns/op, B/op,
# allocs/op, custom virtual_* metrics) so future PRs can diff ns/event and
# allocs/event. BENCH_CMD is shared with bench-check so the recorded and
# checked runs cannot drift.
BENCH_CMD = { $(GO) test -bench . -benchmem -run '^$$' ./internal/sim && \
	  $(GO) test -bench '^(BenchmarkFig12c|BenchmarkEndToEndScheduledRun|BenchmarkThetaSweepCold|BenchmarkThetaSweepWarm)$$' \
	    -benchmem -benchtime 1x -run '^$$' . ; }

bench:
	$(BENCH_CMD) | $(GO) run ./cmd/benchcheck -write -baseline BENCH_sim.json
	@cat BENCH_sim.json

# Regression gate: re-run the recorded benchmarks and compare against the
# committed BENCH_sim.json — ns/op may drift ±25%, allocs/op must stay
# exact on zero-alloc baselines (and within 2% otherwise). Fails the build
# on regression; refresh the baseline with `make bench` after intentional
# perf changes.
bench-check:
	$(BENCH_CMD) | $(GO) run ./cmd/benchcheck -baseline BENCH_sim.json
