GO ?= go

.PHONY: build test race vet check sim-digest recover-smoke obs-smoke chaos-smoke txn-smoke determinism fuzz-smoke bench figures quick-figures loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector is ~10x slower and CI runners can be single-core, so
# give the heavier packages explicit headroom over go test's 10m default.
race:
	$(GO) test -race -timeout 25m ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# check is the tier-1 gate: everything CI runs.
check: vet race sim-digest recover-smoke obs-smoke chaos-smoke txn-smoke
	$(GO) build ./...

# The paper's simulated numbers must not move: one sim-suite pass of the
# benchmark, checked against bench/ref/sim_digest.txt (exits 1 on a
# mismatch). Host-side work never changes these digests.
sim-digest:
	$(GO) run ./bench -workload sim-suite -seconds 1

# Deterministic crash-campaign smoke: every recoverable workload, all four
# fault models, swept crash points, one nested re-crash per recovery.
recover-smoke:
	$(GO) run ./cmd/gpmrecover -quick -maxpoints 2 -recrash-depth 1

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

# Serve-level chaos smoke, the serving stack's crash harness: deterministic
# crash campaigns over the whole serving stack — retrying clients through
# fault-injecting network schedules into shards that power-fail at every
# crash point — asserting exactly-once delivery, no lost updates,
# durable-state integrity, an audit trail that matches each injected crash,
# and no ERR reply or given-up op on the clean network. Then the negative
# control: with PM dedup persistence deliberately broken, the campaign MUST
# catch the violation (exit 1) and shrink it.
chaos-smoke:
	$(call chaos_campaign,,-break-dedup)

# Transactional serving smoke: the serve chaos campaign with snapshot-
# isolation transaction clients (wire protocol v2, RMW increments) mixed
# in, the per-key SI ledger verified against the durable image on every
# run; then the -break-si negative control (commit validation off) MUST be
# caught.
txn-smoke:
	$(call chaos_campaign,-txn,-break-si)

# Observability smoke: run a real gpmserve process with the admin endpoint,
# audit trail, and metrics flush on, drive TCP load through the gpmload
# binary (plain, then -txn, both -json) and the client package, assert /metrics,
# /healthz, /statusz, and /debug/trace are well-formed and show the load,
# then SIGTERM and check the drain leaves metrics + audit files behind.
obs-smoke:
	$(GO) run ./cmd/obssmoke

# The engine's bit-identity contract: a spawn window of 1 block vs 8 must
# produce identical simulated durations, metrics TSV, trace bytes, and
# campaign verdicts, and the engine's window tests (waves wider than the
# window, every block parking on atomics) and the coalescer's rule table
# must hold — under the race detector, at 1 and 4 host CPUs. The default window is GOMAXPROCS, so -cpu
# is what varies it for every kernel that does not set it.
determinism:
	$(GO) test -race -timeout 25m -cpu=1,4 -run 'TestDeterminism|TestWindow|TestMixedKernelDeterminism|TestCoalescerRules' ./internal/experiments/ ./internal/gpu/

# Run the serve package's fuzz targets past their seed corpora, 30 s each:
# the wire parser, and the MVCC slot rows against the per-key chain model
# they replaced. Plain go test runs only the seeds. Not part of check.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 30s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzMVCCHistory$$' -fuzztime 30s ./internal/serve

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

# Non-test Go lines per internal/* and cmd/* directory (subdirectories
# included), then across the whole module outside bench/ — the size
# ROADMAP aim 2 tracks. Not part of check.
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total outside bench/\n' \
		$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

clean:
	rm -f reports/out_*.txt reports/trace.json reports/metrics.tsv reports/timebreakdown.tsv
	rm -rf .bench_build
