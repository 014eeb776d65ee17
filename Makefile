GO ?= go

.PHONY: check fmt vet build test race lint goldens examples bench bench-json bench-wire netctl-soak-smoke tapsbench tapsbench-test

# check is the full CI gate: formatting, vet, build, lint, tests with the
# race detector, the benchmark harness's tests, the golden outputs and the
# examples. CI (.github/workflows/ci.yml) runs the same commands as steps
# of its check job, with lint in a job of its own.
check: fmt vet build lint race tapsbench-test goldens examples

fmt:
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the repo's own determinism/concurrency analyzers
# (DESIGN.md §8). Prints every finding across all packages and
# exits non-zero if there is one; a clean run prints nothing.
lint:
	$(GO) run ./cmd/tapslint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# goldens regenerates the bench-scale trace and decision log, replays the
# checked-in log into a trace and into its plan-state summary (at the end
# of the log and at the first reject, -until 89412), and compares each
# byte for byte with its checked-in golden. The outputs go to a directory
# of their own, so two runs at once do not overwrite each other's files.
goldens:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; set -x; \
	$(GO) run ./cmd/tapsim -scale bench -trace "$$dir/trace_bench.json" && \
	cmp "$$dir/trace_bench.json" cmd/tapsim/testdata/trace_bench.json && \
	$(GO) run ./cmd/tapsim -scale bench -declog "$$dir/declog_bench.bin" && \
	cmp "$$dir/declog_bench.bin" cmd/tapsim/testdata/declog_bench.bin && \
	$(GO) run ./cmd/tapsctl -replay cmd/tapsim/testdata/declog_bench.bin \
		-trace "$$dir/replayed_trace.json" && \
	cmp "$$dir/replayed_trace.json" cmd/tapsim/testdata/trace_bench.json && \
	$(GO) run ./cmd/tapsctl -replay cmd/tapsim/testdata/declog_bench.bin \
		> "$$dir/replay_bench.txt" && \
	cmp "$$dir/replay_bench.txt" cmd/tapsctl/testdata/replay_bench.txt && \
	$(GO) run ./cmd/tapsctl -replay cmd/tapsim/testdata/declog_bench.bin -until 89412 \
		> "$$dir/replay_bench_until_89412.txt" && \
	cmp "$$dir/replay_bench_until_89412.txt" cmd/tapsctl/testdata/replay_bench_until_89412.txt

# examples builds every program under examples/ once and runs it; a
# non-zero exit fails the target. They document the public API (all but
# gantt, which draws its chart from internal packages), so this keeps them
# running, not just compiling. Their output is discarded.
examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./examples/... || exit 1; \
	for ex in "$$dir"/*; do \
		name="$$(basename "$$ex")"; echo "example $$name"; \
		"$$ex" >/dev/null || { echo "example $$name failed"; exit 1; }; \
	done

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

# bench-wire writes the section LABEL of BENCH_wire.json: the controller's
# grant broadcast and codec write benchmarks, ten rows each, kept by
# benchjson as medians with the row count and the interquartile range of
# ns/op; NOTE says how they were taken. A change to the send path records
# its "-after" section here, and its "-parent" section from the same
# `go test` command run in a checkout of its parent commit, piped into
# `benchjson -o <this checkout>/BENCH_wire.json`. See EXPERIMENTS.md.
WIRE_BENCH = BenchmarkBroadcastGrants|BenchmarkCodecWrite
LABEL ?= after
NOTE ?=
bench-wire:
	$(GO) test -run '^$$' -bench '$(WIRE_BENCH)' -count 10 -benchmem ./internal/netctl \
		| $(GO) run ./cmd/benchjson -o BENCH_wire.json -label '$(LABEL)' -note '$(NOTE)'

# netctl-soak-smoke is the CI gate: a short open-loop soak of an
# in-process controller under the race detector, write-ahead declog on.
# tapsload prints its JSON report and exits non-zero if a submission failed
# at the connection level, a probe was dropped, or the controller's health
# document is not "ok" at the end. Longer soaks are the same command with
# other numbers (EXPERIMENTS.md, "Controller soak trajectory").
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
