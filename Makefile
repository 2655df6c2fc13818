GO ?= go

.PHONY: build test race vet lint fuzz ci bench bench-check stress chaos scenarios

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ./... includes internal/analysis and cmd/rls-lint, so the checkers lint
# their own sources too (fixtures under testdata are never loaded).
lint:
	$(GO) run ./cmd/rls-lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic-budget fuzz smoke over every fuzz target in the tree
# (target:package under internal/). CI runs this same rule, so there is one
# list; longer local runs use e.g.
# `go test -fuzz=FuzzGlobMatch -fuzztime=5m ./internal/glob`.
FUZZ_TARGETS = FuzzBloomRoundTrip:bloom FuzzGlobMatch:glob \
	FuzzDecodeResponse:wire FuzzDecoders:wire FuzzMappingRoundTrip:wire \
	FuzzWALDecode:storage FuzzKeyEncodingOrder:storage FuzzDispatch:server

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ./internal/$${t##*:}"; \
		$(GO) test -fuzz="^$${t%%:*}\$$" -fuzztime=10s -run '^$$' ./internal/$${t##*:}; \
	done

# The benchmark is a module of its own (benchmark/go.mod), so `./...` from
# the root never reaches it: vet it and run its smoke tests explicitly.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Repeated race-detector runs over the packages with real lock hierarchies
# (the connection's combining writer, per-table latches, group commit,
# connection handling, the client demultiplexer, the soft-state sender's
# circuit breakers, and the long-lived server-to-server links the LRC
# sender, the RLI forwarder and core's deployments hold: their close/redial
# races) to shake out schedule-dependent bugs.
stress:
	$(GO) test -race -count=5 ./internal/wire ./internal/storage ./internal/server ./internal/client ./internal/lrc ./internal/rli ./internal/membership ./internal/core

# Short deterministic chaos profile: the standard workload generators run
# under injected faults (partition, resets, drops) and the run asserts
# quarantine, graceful degradation, and recovery within one soft-state
# period. Seeded fault schedule — two runs inject the same sequence.
chaos:
	$(GO) run ./cmd/rls-bench -trials 1 chaos

# Open-loop scenario smoke: run the scen-* experiments (including the
# sharded scale-out sweep and the replicated-RLI failover chaos scenario)
# at quick parameters, emit the BENCH_*.json perf-trajectory snapshots, and
# check them against the rls-bench/v1 schema. CI uploads the snapshots as
# artifacts.
scenarios:
	$(GO) run ./cmd/rls-bench -quick -bench 9 -json BENCH_9.json \
		scen-steady scen-flash scen-storm scen-churn scen-tenants scen-read-storm \
		scen-shard-scaleout
	$(GO) run ./cmd/rls-bench -validate-json BENCH_9.json
	$(GO) run ./cmd/rls-bench -quick -bench 10 -json BENCH_10.json scen-rli-failover
	$(GO) run ./cmd/rls-bench -validate-json BENCH_10.json

ci: build vet lint race bench-check fuzz stress chaos scenarios

# The wire benchmarks report writes/frame, which needs more than one
# iteration to mean anything, so they get their own line.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench 'RoundTrip|ConnWriteParallel' -benchtime 20000x -run '^$$' .
	$(GO) test -bench . -benchtime 100x -run '^$$' ./internal/storage
	$(GO) test -bench . -benchtime 10x -run '^$$' ./internal/rdb
