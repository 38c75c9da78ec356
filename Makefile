GO ?= go

.PHONY: ci vet lint lint-report lint-bench lint-race vuln build test test-procs race fuzz bench bench-smoke bench-gate bench-baseline tune-smoke ooc-smoke serve-smoke perm-smoke store-smoke exp-smoke clean

# ci is the full gate: static checks (vet plus the xposelint suite,
# with its golden tests re-run under the race detector and a wall-clock
# budget on the full-repo lint), build, tests (also at GOMAXPROCS 1, 2
# and 4), the race detector (short mode keeps the race shapes small), a
# capped autotuner run, an out-of-core round trip on a real temp file,
# the daemon selftest, the paper's Figure 1 and 2 walkthroughs, one
# round of the engine-pass and daemon round-trip benchmarks, the
# benchmark regression gate against the committed baseline, and a
# best-effort vulnerability scan.
ci: vet lint lint-race lint-bench build test test-procs race tune-smoke ooc-smoke serve-smoke perm-smoke store-smoke exp-smoke bench-smoke bench-gate vuln

vet:
	$(GO) vet ./...

# lint runs the repository's own analyzers (internal/analyzers): hot
# path allocation, index-overflow guards, strength-reduced division,
# pool hygiene, lock discipline (locksafe), goroutine/timer leaks
# (leakcheck), wire-length bounds (wiresafe) and error-sentinel wrapping
# (errsentinel). Non-zero exit on any unsuppressed finding.
lint:
	$(GO) run ./cmd/xposelint ./...

# lint-report writes the machine-readable findings (suppressed ones
# included, with their reasons) to results/lint-report.json; the output
# is sorted and root-relative, so two reports diff textually.
lint-report:
	mkdir -p results
	$(GO) run ./cmd/xposelint -json ./... > results/lint-report.json || true
	@echo "lint-report: results/lint-report.json"

# lint-race re-runs the analyzer golden and metadata tests under the
# race detector: the dataflow analyzers share fact maps across a
# package's analyzer sequence, and the goldens drive every analyzer, so
# this is the cheap way to prove the sharing is race-free. Patterns are
# anchored so the target runs exactly the analyzer tests.
lint-race:
	$(GO) test -race -run '^(TestGolden|TestSuppressionMetadata|TestMultiAllowMetadata)$$' ./internal/analyzers
	$(GO) test -race ./internal/analyzers/lintkit

# lint-bench enforces a wall-clock budget on the full-repo lint: the
# dataflow engine fixpoints must stay lint-fast, not compile-slow. The
# binary is prebuilt so the budget measures analysis, not go build.
LINT_BUDGET_SECS ?= 60
lint-bench:
	mkdir -p results
	$(GO) build -o results/xposelint.bin ./cmd/xposelint
	@start=$$(date +%s); \
	./results/xposelint.bin ./... >/dev/null || exit 1; \
	end=$$(date +%s); took=$$((end - start)); \
	echo "lint-bench: full-repo lint took $${took}s (budget $(LINT_BUDGET_SECS)s)"; \
	if [ $$took -gt $(LINT_BUDGET_SECS) ]; then \
		echo "lint-bench: FAIL — lint exceeded the $(LINT_BUDGET_SECS)s budget"; exit 1; \
	fi

# vuln scans with govulncheck when it is installed and the vulndb is
# reachable; otherwise it reports what it skipped and succeeds, so air-
# gapped ci stays green.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck reported issues or could not reach the vulndb (non-fatal)"; \
	else \
		echo "vuln: govulncheck not installed; skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-procs runs the suite at GOMAXPROCS 1, 2 and 4, so no test can
# assume the core count of the host it was written on. -count=1 is
# required: the test cache ignores GOMAXPROCS and would replay the
# first run's results for the others.
test-procs:
	@for p in 1 2 4; do \
		echo "test-procs: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; \
	done

race:
	$(GO) test -race -short ./...

# fuzz runs each fuzz target for a short budget; raise FUZZTIME for a
# longer campaign. Patterns are anchored so each invocation runs exactly
# the named target (unanchored, FuzzTranspose also matches
# FuzzTransposeBatch and friends, and go test refuses to fuzz more than
# one target at a time).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz '^FuzzTranspose$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzPermuteAxes$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzPlannerReuse$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzAOSRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -fuzz '^FuzzWisdomRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/tune
	$(GO) test -fuzz '^FuzzOOCRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/ooc
	$(GO) test -fuzz '^FuzzTilestore$$' -fuzztime $(FUZZTIME) ./internal/tilestore

bench:
	$(GO) test -bench . -benchmem .

# bench-smoke runs one round of each engine-pass and daemon round-trip
# benchmark. They walk the engine's unexported pass list and drive the
# test server, which `go test` only compiles; one round proves they
# still run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EnginePasses|TinyJobRoundTrip' -benchtime 1x ./internal/core ./internal/server

# bench-gate is the perf-regression gate: measure the quick preset (an
# anchored -run pattern pins the micro families so the run stays in the
# seconds range even if the matrix grows) and diff it against the
# committed baseline. Alloc-count regressions and missing series fail
# hard; wall-clock deltas only warn, because the baseline may have been
# measured on a different host where throughput does not transfer.
BENCH_GATE_RUN = ^(transpose|planner|aos_to_soa|ooc|permute|tilestore)_
bench-gate:
	mkdir -p results
	$(GO) run ./cmd/benchorch run -preset quick -seed 2014 -run '$(BENCH_GATE_RUN)' -q -json results/bench-latest.json
	$(GO) run ./cmd/benchorch compare -perf warn results/bench-baseline.json results/bench-latest.json

# bench-baseline refreshes the committed gate baseline in place; commit
# the result with `git add -f results/bench-baseline.json` (results/ is
# otherwise ignored).
bench-baseline:
	mkdir -p results
	$(GO) run ./cmd/benchorch run -preset quick -seed 2014 -run '$(BENCH_GATE_RUN)' -q -json results/bench-baseline.json

# tune-smoke exercises the whole autotuner pipeline end to end on tiny
# shapes with capped measurement budgets: batch-tune 2D shapes and one
# axis permutation, write a wisdom file, and read it back. Seconds, not
# minutes — cheap enough for ci.
tune-smoke:
	mkdir -p results
	$(GO) run ./cmd/xpose tune -shapes 64x48,512x6,32x96 -perms 2x8x8x4:0,3,1,2 -elem 8 -workers 1 -fast -o results/wisdom-smoke.json
	$(GO) run ./cmd/xpose tune -list results/wisdom-smoke.json

# ooc-smoke round-trips the out-of-core engine on a real temp file,
# journaled and verified, under the race detector: the `xpose ooc`
# selftest plus the acceptance tests of the public TransposeFile surface.
ooc-smoke:
	$(GO) run ./cmd/xpose ooc -selftest -budget 64k
	$(GO) test -race -run 'TestTransposeFile|TestResumeAfterKill' . ./internal/ooc

# perm-smoke round-trips small raw files through xpose and requires
# each result to be byte-identical to the original (and each forward
# step to have changed it): an NHWC tensor through -dims/-perm (NHWC ->
# NCHW, then the inverse permutation), a 24x17 matrix of 2-byte
# elements through -rows/-cols and back, and 1000 AoS records of 6
# 4-byte fields to SoA (-rows 1000 -cols 6) and back (-rows 6 -cols
# 1000).
perm-smoke:
	mkdir -p results
	$(GO) build -o results/xpose.bin ./cmd/xpose
	head -c 4096 /dev/urandom > results/perm-smoke.bin
	cp results/perm-smoke.bin results/perm-smoke.orig
	./results/xpose.bin -dims 2x8x8x4 -perm 0,3,1,2 -elem 8 results/perm-smoke.bin
	! cmp -s results/perm-smoke.bin results/perm-smoke.orig
	./results/xpose.bin -dims 2x4x8x8 -perm 0,2,3,1 -elem 8 results/perm-smoke.bin
	cmp results/perm-smoke.bin results/perm-smoke.orig
	@echo "perm-smoke: NHWC<->NCHW round trip byte-identical"
	head -c 816 /dev/urandom > results/xpose-smoke.bin
	cp results/xpose-smoke.bin results/xpose-smoke.orig
	./results/xpose.bin -rows 24 -cols 17 -elem 2 results/xpose-smoke.bin
	! cmp -s results/xpose-smoke.bin results/xpose-smoke.orig
	./results/xpose.bin -rows 17 -cols 24 -elem 2 results/xpose-smoke.bin
	cmp results/xpose-smoke.bin results/xpose-smoke.orig
	@echo "perm-smoke: 24x17 2-byte transpose round trip byte-identical"
	head -c 24000 /dev/urandom > results/aos-smoke.bin
	cp results/aos-smoke.bin results/aos-smoke.orig
	./results/xpose.bin -rows 1000 -cols 6 -elem 4 results/aos-smoke.bin
	! cmp -s results/aos-smoke.bin results/aos-smoke.orig
	./results/xpose.bin -rows 6 -cols 1000 -elem 4 results/aos-smoke.bin
	cmp results/aos-smoke.bin results/aos-smoke.orig
	@echo "perm-smoke: AoS->SoA->AoS round trip byte-identical"

# store-smoke runs the columnar tile store's acceptance demo: a
# projection must read strictly fewer backend bytes than a full scan,
# repeated scans must run >90% out of the block cache, and an ingest
# killed mid-write must leave the dataset absent-or-fully-valid.
store-smoke:
	$(GO) run ./cmd/xpose store selftest

# exp-smoke runs the walkthroughs of the paper's Figures 1 and 2 and
# requires their three verdicts to read true: Figure 1's R2C yields the
# paper's matrix and C2R restores the original, and Figure 2's staged
# C2R matches an out-of-place transpose.
exp-smoke:
	mkdir -p results
	$(GO) run ./cmd/benchorch exp -run fig1,fig2 -scale tiny -out '' > results/exp-smoke.txt
	test "$$(grep -c ': true$$' results/exp-smoke.txt)" -eq 3
	@echo "exp-smoke: Figure 1 and 2 walkthroughs match the paper"

# serve-smoke boots the xposed daemon in-process and runs its
# acceptance demo: 64 concurrent clients over TCP sharing plans, a
# spilled job killed mid-upload and resumed across a server restart,
# and every claim re-checked from the /stats scrape. It runs twice, the
# second time under the race detector: cmd/xposed has no tests, so
# `make race` never reaches the concurrent clients or the kill, restart
# and resume path.
serve-smoke:
	$(GO) run ./cmd/xposed -selftest
	$(GO) run -race ./cmd/xposed -selftest

# clean keeps results/bench-baseline.json: it is committed (the
# bench-gate reference), not a build product.
clean:
	$(GO) clean
	@if [ -d results ]; then find results -mindepth 1 ! -name bench-baseline.json -delete; fi
