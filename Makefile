GO ?= go

.PHONY: check build vet test race fuzz soak failover-soak vuln

# check is the CI gate: vet + full test suite (which includes the
# city-frame compression-ratio smoke test, TestRatioSmoke), then the
# data-race pass (which includes the reliable-transport fault-injection
# tests), then a known-vulnerability scan when the scanner is installed.
check: build vet test race vuln

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Performance is measured by perfbench/ (its own module, outside ./...):
# `python3 perfbench/run.py --workload encode-hdl64` and friends, see
# perfbench/README.md.

# Chaos soak: concurrent tenants through fault-injected links and
# crash-prone disks with induced crash-restarts, under the race detector.
# Fails if any acked frame is missing or corrupt after the final restart.
# FAULTNET_SEED=n replays a specific fault schedule.
SOAK_FLAGS ?= -tenants 4 -clients 2 -frames 400 -crashes 3 \
	-shed-high 48 -shed-low 12 -out BENCH_load.json
soak:
	$(GO) run -race ./cmd/dbgc-loadgen $(SOAK_FLAGS)

# Replication failover soak: sync-replicated primary→follower pair under
# link chaos; severs the replication link (healthz must degrade, then
# recover), kills the primary mid-stream, promotes the follower, and
# cold-verifies every sync-acked frame in the follower's store.
FAILOVER_FLAGS ?= -failover -tenants 4 -clients 2 -frames 100 \
	-out BENCH_load.json
failover-soak:
	$(GO) run -race ./cmd/dbgc-loadgen $(FAILOVER_FLAGS)

# Known-vulnerability scan. The scanner is not vendored: the target is a
# no-op (with a note) when govulncheck is absent, so offline checkouts
# still pass `make check`; CI installs it explicitly.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Short fuzz sweeps over the wire decoder and every geometry decoder, each
# running under DecodeLimits so a decompression bomb fails the target.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/netproto
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/kdtree
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/gpcc
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/quadtree
	$(GO) test -fuzz=FuzzBlockPack -fuzztime=$(FUZZTIME) ./internal/blockpack
	$(GO) test -fuzz=FuzzContextOctree -fuzztime=$(FUZZTIME) ./internal/octree
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/arith
	$(GO) test -fuzz=FuzzShardedStream -fuzztime=$(FUZZTIME) ./internal/arith
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) ./internal/core
