GO ?= go

.PHONY: all build test race vet bench bench-svm bench-online bench-spec bench-all bench-quality golden clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The engine benchmarks behind docs/PERFORMANCE.md and docs/EMULATOR.md.
bench:
	$(GO) test -run xxx -bench 'BenchmarkMine|BenchmarkSVMTrain|BenchmarkCounterSparse|BenchmarkSimulateCaseI|BenchmarkPipelineCaseI' -benchmem .
	$(GO) test -run xxx -bench . -benchmem ./internal/svm/ ./internal/feature/
	$(GO) test -run xxx -bench . -benchmem ./internal/mcu/ ./internal/sim/ ./internal/apps/

# The mining-at-scale benchmarks behind BENCH_PR4.json: blocked sparse
# kernels, training across Gram modes, and the l=10k campaign problem
# (dense Gram vs the column cache at 25% and 5% of its footprint; several
# minutes on one core).
bench-svm:
	$(GO) test -run xxx -bench 'BenchmarkSparseOps' -benchmem ./internal/stats/
	$(GO) test -run xxx -bench 'BenchmarkTrain|BenchmarkKernelEval' -benchmem -timeout 60m ./internal/svm/

# The online-mining benchmarks behind BENCH_PR10.json (PR 7 baseline in
# BENCH_PR7.json): warm delta refits vs cold refits at the l=10k campaign
# size, the on-disk spill variants (indexed delta replay vs FullReplay,
# with blocks-decoded/skipped counters), and the ingest-only spill path
# (several minutes on one core).
bench-online:
	$(GO) test -run xxx -bench 'BenchmarkOnlineMine|BenchmarkOnlineIngest' -benchmem -timeout 60m ./internal/core/

# The record phase of the 12-node multihop chain (conservative sections on
# the scheduler goroutine; BENCH_PR6.json has the old worker-count sweep).
bench-spec:
	$(GO) test -run xxx -bench 'BenchmarkRecordMultihop' -benchmem -timeout 30m ./internal/synth/

# Every benchmark, including the paper-evaluation harness (slow).
bench-all:
	$(GO) test -run xxx -bench . -benchmem ./...

# Evaluate the Sentomist-bench seeded-bug corpus and gate precision@k /
# MRR against the checked-in baseline (docs/BENCH.md). Regenerate the
# baseline deliberately with:
#   $(GO) run ./cmd/rank -bench -bench-update BENCH_QUALITY.json
bench-quality:
	$(GO) run ./cmd/rank -bench -bench-baseline BENCH_QUALITY.json

# Regenerate-and-diff the pinned ranking tables.
golden:
	$(GO) test -run Golden ./internal/apps/

clean:
	$(GO) clean
	rm -f sentomist.test
