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
# transport-error, context, goroutine-lifetime, atomic-discipline, and
# wire-registry/codec-coverage invariants — see DESIGN.md §9 and §14) over every
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
	for a in lockcheck detcheck transportcheck ctxcheck leakcheck atomiccheck wirecheck; do \
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
# detector, one per consistency scheme. Each run carries the
# observability layer, checks the §5 bracket and §4 availability
# conformance invariants, and leaves its metrics snapshot, availability
# verdict, sealed flight-recorder dump, and final burn-rate evaluation
# (with the alert transition log — empty on a clean run, fire/clear
# stamped on a degraded one) in artifacts/ (CI uploads all four; the
# flight dump is null unless an invariant violation or a critical
# objective sealed it).
chaos-short:
	mkdir -p artifacts
	$(GO) run -race ./cmd/chaos -scheme=voting -seed=7 -events=150 -ops-per-event=4 -metrics-out=artifacts/chaos-voting-metrics.json -avail-out=artifacts/chaos-voting-avail.json -flight-out=artifacts/chaos-voting-flight.json -slo-out=artifacts/chaos-voting-slo.json
	$(GO) run -race ./cmd/chaos -scheme=ac     -seed=7 -events=150 -ops-per-event=4 -metrics-out=artifacts/chaos-ac-metrics.json -avail-out=artifacts/chaos-ac-avail.json -flight-out=artifacts/chaos-ac-flight.json -slo-out=artifacts/chaos-ac-slo.json
	$(GO) run -race ./cmd/chaos -scheme=nac    -seed=7 -events=150 -ops-per-event=4 -metrics-out=artifacts/chaos-nac-metrics.json -avail-out=artifacts/chaos-nac-avail.json -flight-out=artifacts/chaos-nac-flight.json -slo-out=artifacts/chaos-nac-slo.json

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
# RemoteSite's debug routes and poller, on-demand and unattended seals,
# interleaved probers on a hand-stepped plane — under the race detector. The packages under internal/obs
# are race-tested once, by `make race` / CI's `go test -race ./...`.
obs-race:
	$(GO) test -race -run 'TestHealthSurface|TestCriticalPathSurface|TestRemoteObservabilitySurface|TestHostDebugSurfaceParity|TestRemoteBlackBox|TestRemoteCriticalHealthSeals|TestRemotePollerSealsUnattended|TestInterleavedProbersSeeOneVerdict|TestLazyRefreshRaisesNoObjective' .
