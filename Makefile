GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint lint-sweep fuzz-smoke bench-smoke chaos-short obs-race report-stable loc loc-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bin/relidevlint: $(wildcard cmd/relidevlint/*.go internal/lint/*.go)
	$(GO) build -o $@ ./cmd/relidevlint

# lint runs the repo's own analyzer suite (locking, determinism,
# transport-error, context and goroutine-lifetime invariants — see
# DESIGN.md §9 and §14) over every
# package, then govulncheck when it is installed (CI installs it;
# offline dev boxes skip it).
lint: bin/relidevlint
	$(GO) vet -vettool=$(CURDIR)/bin/relidevlint ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping vulnerability scan (CI runs it)"; \
	fi

# lint-sweep runs the analyzer suite repo-wide without failing the
# build and prints per-analyzer finding counts — the zero lines are the
# point: they show each analyzer ran and found the tree clean.
lint-sweep: bin/relidevlint
	@out=$$($(GO) vet -vettool=$(CURDIR)/bin/relidevlint ./... 2>&1 || true); \
	printf '%s\n' "$$out" | grep '\[relidevlint/' || true; \
	for a in lockcheck detcheck transportcheck ctxcheck leakcheck; do \
		n=$$(printf '%s\n' "$$out" | grep -c "\[relidevlint/$$a\]" || true); \
		printf 'lint-sweep: %-14s %s finding(s)\n' "$$a" "$$n"; \
	done

# fuzz-smoke gives each property fuzzer a short budget — enough to shake
# out regressions in the quorum arithmetic, the was-available closure,
# the chaos payload codec, and the wire codec's two decoders (which
# must refuse every malformed frame without panicking) without stalling
# CI.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzVersionQuorum -fuzztime=$(FUZZTIME) ./internal/voting
	$(GO) test -run=NONE -fuzz=FuzzClosure -fuzztime=$(FUZZTIME) ./internal/availcopy
	$(GO) test -run=NONE -fuzz=FuzzPayloadRoundTrip -fuzztime=$(FUZZTIME) ./internal/chaos
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run=NONE -fuzz=FuzzDecodeResponse -fuzztime=$(FUZZTIME) ./internal/protocol

# bench-smoke vets and tests the benchmark module, which lives outside
# `./...` (benchmark/go.mod) and reaches into rpcnet, protocol and site:
# a changed exported signature there fails here instead of silently
# breaking the benchmark. Its smoke test runs every workload at a
# fraction of the measured size.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# chaos-short replays the three seeded schedules CI runs, under the race
# detector, one per consistency scheme. Every run carries the whole
# observability plane and checks the §4 refinement (the cluster against
# the scheme's availability state machine), §5 bracket conformance and
# clean-run SLO invariants; its whole report — metrics, the §5
# verdict, health, burn-rate evaluation and alert log, and the sealed
# flight dump (absent unless an invariant violation or a critical
# objective sealed it) — lands in
# artifacts/chaos-<scheme>.json, the bytes TestReportBytesPinned pins,
# and the summary with the digest on stderr. CI uploads the three
# reports whether or not the run passed.
chaos-short:
	mkdir -p artifacts
	$(GO) run -race ./cmd/chaos -scheme=voting -seed=7 -events=150 -ops-per-event=4 -json > artifacts/chaos-voting.json
	$(GO) run -race ./cmd/chaos -scheme=ac     -seed=7 -events=150 -ops-per-event=4 -json > artifacts/chaos-ac.json
	$(GO) run -race ./cmd/chaos -scheme=nac    -seed=7 -events=150 -ops-per-event=4 -json > artifacts/chaos-nac.json

# report-stable is the whole-report replay check (DESIGN.md "Time"): a
# chaos report — metrics, alerts and flight dump, not only the
# digest — must be the same bytes at any GOMAXPROCS, plain and under
# the race detector's different scheduling (about 2.5 min there on a
# 2-core box; the -timeout leaves room past go test's 10 min default).
STABLE := -timeout 60m -cpu 1,2,4 -count=5 -run 'TestRunDigestStableAcrossInvocations|TestReportBytesStableAcrossGOMAXPROCS' ./cmd/chaos ./internal/chaos
report-stable:
	$(GO) test $(STABLE)
	$(GO) test -race $(STABLE)

# loc prints the tracked size (ROADMAP house rule 2): non-test Go lines
# outside benchmark/ and testdata/. BENCH_history.json keeps the trend.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' | xargs cat | wc -l

# loc-check fails when the tracked size exceeds the newest non_test_loc
# recorded in BENCH_history.json: this round the number only goes down,
# and a PR that legitimately grows it has to say so in the ledger.
loc-check:
	@loc=$$($(MAKE) -s loc); \
	max=$$(grep -o '"non_test_loc": *[0-9]*' BENCH_history.json | tail -1 | grep -o '[0-9]*$$'); \
	if [ "$$loc" -gt "$$max" ]; then \
		echo "loc-check: $$loc non-test lines, but BENCH_history.json's newest non_test_loc is $$max"; exit 1; \
	fi; \
	echo "loc-check: $$loc non-test lines (ledger: $$max)"

# obs-race runs the serving host's observability surface — the
# RemoteSite's debug routes and poller, the seals it takes unattended,
# interleaved probers on a hand-stepped plane, the cross-site trace
# pull, whole and degraded — a traced op's shared call span node, and
# the op scope slots of scheme.OpLocks (a context kept past its op's
# End resolves nothing; same-stripe clients and a paged recovery keep
# each op's phases and spans its own) under the race detector. The
# other tests under internal/obs are race-tested once, by `make race` /
# CI's `go test -race ./...`.
obs-race:
	$(GO) test -race -run 'TestHealthSurface|TestCriticalPathSurface|TestRemoteObservabilitySurface|TestHostDebugSurfaceParity|TestRemoteBlackBox|TestRemoteCriticalHealthSeals|TestRemotePollerSealsUnattended|TestInterleavedProbersSeeOneVerdict|TestLazyRefreshRaisesNoObjective|TestTraceTreeSurface|TestClusterTracesDegradeWithSiteDown' .
	$(GO) test -race -run 'TestTracedOpCallsShareOneNode' ./internal/obs
	$(GO) test -race -run 'TestOpContextDiesAtEnd' ./internal/scheme
	$(GO) test -race -run 'TestOpScopesStayTheirOps' ./internal/core
