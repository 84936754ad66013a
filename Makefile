GO ?= go

.PHONY: build test race vet check recover-smoke serve-smoke obs-smoke chaos-smoke txn-smoke determinism bench figures quick-figures clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector is ~10x slower and CI runners can be single-core, so
# give the heavier packages explicit headroom over go test's 10m default.
race:
	$(GO) test -race -timeout 25m ./...

vet:
	$(GO) vet ./...

# check is the tier-1 gate: everything CI runs.
check: vet race recover-smoke serve-smoke obs-smoke chaos-smoke txn-smoke
	$(GO) build ./...

# Deterministic crash-campaign smoke: every recoverable workload, all four
# fault models, swept crash points, one nested re-crash per recovery.
recover-smoke:
	$(GO) run ./cmd/gpmrecover -quick -sweep -maxpoints 2 -recrash-depth 1

# Serving-path smoke: real TCP loopback load through the pipelined gpKVS
# front-end (10k ops, 2 shards, GPM), kill-and-recover every shard at each
# between-stage crash point, verify the durable store against the committed
# oracle and the audit trail against the injected crashes; then the same
# with the exactly-once client and with transactions. Correctness only —
# it writes nothing and judges no wall-clock number (that is `make bench`).
serve-smoke:
	$(GO) run ./cmd/gpmserve -selftest -ops 10000 -shards 2

# chaos_campaign runs the serve chaos campaign with extra flags $(1), which
# must pass, then its negative control $(2), which MUST be caught. gpmchaos
# is built once and run as a binary so the exit status tested is its own:
# `go run` reports every failure as 1 — a usage error (2) included — and
# only a real 1 means "violation caught".
define chaos_campaign
@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
$(GO) build -o "$$bin/gpmchaos" ./cmd/gpmchaos; \
"$$bin/gpmchaos" -serve -mode GPM -schedule clean,chaos $(1); \
rc=0; "$$bin/gpmchaos" -serve -mode GPM -schedule clean -model clean $(1) $(2) \
	> /dev/null 2>&1 || rc=$$?; \
if [ $$rc -ne 1 ]; then \
	echo "$@: negative control NOT caught ($(2) run exited $$rc, want 1)"; exit 1; \
fi; echo "$@: negative control caught"
endef

# Serve-level chaos smoke: deterministic crash campaigns over the whole
# serving stack — retrying clients through fault-injecting network
# schedules into shards that power-fail at swept crash points — asserting
# exactly-once delivery, no lost updates, and durable-state integrity.
# Then the negative control: with PM dedup persistence deliberately
# broken, the campaign MUST catch the violation (exit 1) and shrink it.
chaos-smoke:
	$(call chaos_campaign,,-break-dedup)

# Transactional serving smoke: zipf hot-key RMW transactions over wire
# protocol v2 through the exactly-once client, with the per-key snapshot-
# isolation ledger verified against the durable image. Then the serve chaos
# campaign re-runs with transaction clients mixed in, and the -break-si
# negative control (commit validation off) MUST be caught.
txn-smoke:
	$(GO) run ./cmd/gpmserve -selftest -ops 6000 -shards 2 -no-recover \
		-retry-pass=false
	$(call chaos_campaign,-txn,-break-si)

# Observability smoke: run a real gpmserve process with the admin endpoint,
# audit trail, and metrics flush on, drive TCP load, assert /metrics,
# /healthz, /statusz, and /debug/trace are well-formed and show the load,
# then SIGTERM and check the drain leaves metrics + audit files behind.
obs-smoke:
	$(GO) run ./cmd/obssmoke

# The engine's bit-identity contract: 1 worker vs 8 workers must produce
# identical simulated durations, metrics TSV, trace bytes, and campaign
# verdicts — under the race detector, at 1 and 4 host CPUs.
determinism:
	$(GO) test -race -timeout 25m -cpu=1,4 -run 'TestDeterminism' ./internal/experiments/

# The repository's one benchmark (BENCHMARK.json, bench/README.md): five
# workloads, both clocks, per-layer attribution; the last stdout line is the
# JSON result. The only place a wall-clock number is produced or judged.
bench:
	$(GO) run ./bench

# Regenerate every paper figure/table into reports/.
figures:
	$(GO) run ./cmd/gpmbench -experiment all

# Same, at test scale, with a trace + metrics dump (see README Observability).
quick-figures:
	$(GO) run ./cmd/gpmbench -experiment all -quick \
		-trace reports/trace.json -metrics reports/metrics.tsv \
		-timebreakdown reports/timebreakdown.tsv

clean:
	rm -f reports/out_*.txt reports/trace.json reports/metrics.tsv reports/timebreakdown.tsv
	rm -rf .bench_build
