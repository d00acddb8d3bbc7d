# The CI jobs in .github/workflows/ci.yml run these targets and nothing
# else, so a change that passes `make ci` locally passes the pipeline.

GO ?= go

.PHONY: build test race bench bench-json bench-gate bench-smoke timing-guard fuzz-smoke kv-crash replica-crash load-smoke examples fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the concurrent serving path and everything that
# drives it concurrently (workload generator, revocation list, sharded
# bank property tests, root integration tests, and the crypto
# precompute layer's shared tables/pools).
race:
	$(GO) test -race ./internal/provider ./internal/httpapi ./internal/kvstore ./internal/payment ./internal/replica ./internal/revocation ./internal/workload ./internal/obs ./internal/cryptox/precomp ./internal/cryptox/schnorr ./internal/cryptox/rsablind .

# Full evaluation benchmarks, every table and figure (minutes; see
# docs/experiments.md for the family behind each column).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1s .

# Machine-readable per-PR performance snapshot: run the protocol-level
# T2_/T3_ families and archive name → ns/op as JSON (BENCH_PR8.json).
# BENCHTIME=1x turns it into a compile-and-run smoke for CI.
BENCHTIME ?= 2s
bench-json:
	$(GO) test -run=NONE -bench='BenchmarkT[23]_' -benchtime=$(BENCHTIME) . | $(GO) run ./cmd/benchjson -o BENCH_PR8.json

# Regression gate: rerun the T2_/T3_ families GATECOUNT times, collapse
# each benchmark to its median, and fail if any T3 batch median is more
# than 10% slower than the committed BENCH_PR8.json. Never rewrites the
# baseline — refresh it deliberately with `make bench-json` on a quiet
# box. Cross-box numbers are advisory: CI runs this continue-on-error.
GATECOUNT ?= 3
bench-gate:
	$(GO) test -run=NONE -bench='BenchmarkT[23]_' -benchtime=$(BENCHTIME) -count=$(GATECOUNT) . | \
		$(GO) run ./cmd/benchjson -gate BENCH_PR8.json -gate-match '^BenchmarkT3_.*Batch' -gate-tolerance 0.10

# One iteration per benchmark: every experiment family compiles and
# runs, and the replica catch-up family next to its package.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) test -run=NONE -bench=BenchmarkT3_ReplicaCatchup -benchtime=1x ./internal/replica

# Statistical timing guard over the blinded crypto ops (dudect-style
# Welch t-test, see docs/crypto.md): fails only on a leak confirmed in
# two independent rounds, skips on boxes too noisy for a verdict.
timing-guard:
	$(GO) test -count=1 -v ./internal/cryptox/ctcheck/

# Short-deadline go-native fuzzing (one -fuzz target per package run):
# corrupted WAL tails and license encodings must error, never panic or
# silently drop committed state. CI runs this on every PR.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=10s ./internal/kvstore
	$(GO) test -run=NONE -fuzz=FuzzLicenseCodec -fuzztime=10s ./internal/license

# Subprocess crash/compaction suite: SIGKILL mid-group-commit, mid-
# segment-roll and mid-incremental-compaction; -count=2 reruns each
# scenario so the kill lands at different log positions.
kv-crash:
	$(GO) test -run 'TestCrashRecovery' -count=2 ./internal/kvstore

# Replication crash suite: SIGKILL the follower mid-apply and the
# primary mid-stream (with compaction racing the segment streams); the
# follower's recovered state must be a consistent prefix and converge
# to the primary's durable prefix. -count=2 varies the kill position.
replica-crash:
	$(GO) test -run 'TestReplicaCrash' -count=2 ./internal/replica

# End-to-end load smoke: boots a real primary + one replica, drives a
# 5-second mixed scenario at low RPS through cmd/p2drm-load, and fails
# on any non-2xx response or an empty latency histogram in the report.
# Also scrapes /v2/metrics on both roles before and after the run,
# failing on a missing core metric family or a counter that moved
# backwards.
load-smoke:
	$(GO) test -run 'TestLoadSmoke' -count=1 ./cmd/p2drm-load

# Compile check over examples/ so doc-facing code cannot rot; `go vet`
# also runs them for free via ./... but this keeps the failure isolated.
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check test race bench-smoke timing-guard fuzz-smoke examples kv-crash replica-crash load-smoke
