GO ?= go
GOFMT ?= gofmt

.PHONY: all build test race flake-gate vet fmt-check bench-smoke bench-full fuzz-smoke docs-check perfbench-check check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake gate: ten race-enabled runs of the cluster create-then-write path
# and of every learner test, so a regression that fails one run in two
# fails CI instead of slipping through a single pass.
flake-gate:
	$(GO) test -race -count=10 -run 'TestClusterMode|Learner' ./cmd/grubd ./internal/server

vet:
	$(GO) vet ./...

# Formatting gate: fail (and list the offenders) if any tracked Go file is
# not gofmt-clean.
fmt-check:
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# One fast pass over every registered experiment (including the gateway,
# shard, persistence and authenticated-read serving benchmarks) at reduced
# scale, writing the machine-readable per-experiment metrics to
# BENCH_smoke.json (uploaded as a CI artifact). Registry sanity is already
# covered by TestRegistryGolden under `make race`.
bench-smoke:
	$(GO) run ./cmd/grubbench -all -scale 0.05 -json BENCH_smoke.json

# The full-scale pass: every experiment at scale 1.0 — 20x the smoke sizes
# (the storage-engine experiment, for one, runs its point-miss phases over
# 200k keys instead of 10k). Results land in BENCH_full.json; the nightly
# scheduled CI job runs this and uploads the file as an artifact.
bench-full:
	$(GO) run ./cmd/grubbench -all -scale 1.0 -json BENCH_full.json

# Bounded fuzz pass over the durable formats, short enough for CI (run with
# a bigger FUZZTIME locally to dig):
#   - persistent ADS: random op streams against a map model with proof
#     verification at every step;
#   - kvstore SSTables: corrupted/truncated table bytes must error at open,
#     never panic or serve wrong values;
#   - kvstore bloom filters: malformed encodings must decode-error or answer
#     membership safely;
#   - binary feed snapshots (feed bytes and whole shard snapshot records):
#     malformed input must decode-error, never panic or over-allocate. Its
#     seeds are whole snapshots, so minimizing a new input at the default
#     60s would eat the budget; it is capped at 10 runs.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/ads -run '^$$' -fuzz FuzzSetOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzSSTableOpen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvstore -run '^$$' -fuzz FuzzBloomDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzDecodeFeedSnapshot -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# Docs gate: relative markdown links in README.md and docs/ must resolve,
# docs/API.md must document every route registered on the gateway mux, and
# every registered metric name (grub_* string literal in non-test source)
# must be documented in docs/API.md. A live half then boots a gateway,
# scrapes /metrics, and requires the exposition to parse strictly with
# every served grub_* family documented — catching names built at runtime.
docs-check:
	$(GO) run ./tools/docscheck

# The benchmark (perfbench/) is its own Go module, so the root build and
# tests do not cover it: vet and test it on its own, with the environment
# perfbench/run.sh builds it under.
perfbench-check:
	cd perfbench && GOWORK=off GOFLAGS= $(GO) vet ./... && GOWORK=off GOFLAGS= $(GO) test ./...

check: build vet fmt-check race flake-gate bench-smoke docs-check perfbench-check

clean:
	$(GO) clean ./...
	rm -f BENCH_smoke.json BENCH_full.json
