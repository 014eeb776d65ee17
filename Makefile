GO ?= go

.PHONY: check fmt vet build test race lint bench bench-json bench-netctl netctl-soak-smoke tapsbench tapsbench-test

# check is the full CI gate: formatting, vet, build, lint, tests with the
# race detector. CI (.github/workflows/ci.yml) runs exactly this target.
check: fmt vet build lint race

fmt:
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the repo's own determinism/concurrency/hot-path analyzers
# (DESIGN.md §8 and §12). Prints every finding across all packages and
# ratchets against lint.baseline.json: new findings exit non-zero,
# grandfathered ones print with a (baselined) tag. A clean run prints
# nothing.
lint:
	$(GO) run ./cmd/tapslint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-json refreshes two sections of BENCH_planner.json. "after": the
# planner hot-path micro-benchmarks (interval calculus, PlanAll, full TAPS
# runs) plus the end-to-end Fig6/Fig7 deadline sweeps on one core.
# "sweep-parallel": the same two sweeps at 1 and 2 cores in one run (rows
# NAME and NAME-2), the cell runner's gain. "after" is compared with the
# "parent" section: a PR that moves these numbers first runs the two
# `go test` commands below in a checkout of its parent commit, on the same
# machine, piped into `benchjson -o <this checkout>/BENCH_planner.json
# -label parent`. See EXPERIMENTS.md.
SWEEP_BENCH = BenchmarkFig6DeadlineSweepSingleRooted|BenchmarkFig7DeadlineSweepFatTree
bench-json:
	@{ \
		$(GO) test -run '^$$' -bench . -benchmem ./internal/simtime ./internal/core && \
		$(GO) test -run '^$$' -bench '$(SWEEP_BENCH)' -benchmem -cpu 1 . ; \
	} | $(GO) run ./cmd/benchjson -o BENCH_planner.json -label after
	@$(GO) test -run '^$$' -bench '$(SWEEP_BENCH)' -benchmem -cpu 1,2 . \
		| $(GO) run ./cmd/benchjson -o BENCH_planner.json -label sweep-parallel \
			-note "experiments.runCells: Fig6/Fig7 at BenchScale, GOMAXPROCS 1 (NAME) vs 2 (NAME-2), one go test run"

# bench-netctl refreshes BENCH_netctl.json: tapsload soaks an in-process
# controller at NETCTL_CONNS connections (open-loop Poisson arrivals,
# write-ahead declog on) and benchjson folds admission throughput and the
# per-stage decision-latency quantiles into the trajectory file. Two
# curves per run: tightness 1 (normal) and 0.05 (RCD-style
# close-to-deadline storm). See EXPERIMENTS.md for methodology.
NETCTL_CONNS ?= 1000
NETCTL_RATE ?= 3
NETCTL_LABEL ?= after
bench-netctl:
	@{ \
		$(GO) run ./cmd/tapsload -selfhost -conns $(NETCTL_CONNS) -rate $(NETCTL_RATE) \
			-warmup 3s -duration 20s -speedup 1 -deadline-ms 2000 -tightness 1 \
			-declog "$$(mktemp -u)" -bench && \
		$(GO) run ./cmd/tapsload -selfhost -conns $(NETCTL_CONNS) -rate $(NETCTL_RATE) \
			-warmup 3s -duration 20s -speedup 1 -deadline-ms 2000 -tightness 0.05 \
			-declog "$$(mktemp -u)" -bench ; \
	} | $(GO) run ./cmd/benchjson -o BENCH_netctl.json -label $(NETCTL_LABEL)

# netctl-soak-smoke is the CI gate: a short soak under the race detector;
# tapsload exits non-zero on dropped probes or an unhealthy controller.
netctl-soak-smoke:
	$(GO) run -race ./cmd/tapsload -selfhost -conns 32 -rate 5 \
		-warmup 1s -duration 4s -speedup 1 -deadline-ms 2000 \
		-declog "$$(mktemp -u)"

# tapsbench runs the repository's benchmark (BENCHMARK.json): four
# workloads, 21 s each; see bench/README.md for flags and metrics.
tapsbench:
	bash bench/run.sh

# tapsbench-test runs the harness's own smoke and determinism tests. The
# harness is a nested module, so `go test ./...` at the root skips it.
tapsbench-test:
	cd bench/tapsbench && $(GO) test -race ./...
