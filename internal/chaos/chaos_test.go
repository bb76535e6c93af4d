package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/core"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/plane"
)

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func short(kind core.SchemeKind, seed int64) Config {
	cfg := Defaults(kind)
	cfg.Seed = seed
	cfg.Events = 60
	cfg.OpsPerEvent = 4
	return cfg
}

func TestChaosZeroViolationsAllSchemes(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			rep := run(t, short(kind, 7))
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations)
			}
			if rep.EventsApplied < 60 {
				t.Fatalf("applied %d events, want >= 60", rep.EventsApplied)
			}
			if rep.TotalFailures < 1 {
				t.Fatal("schedule finished without a total failure")
			}
			if rep.Ops == 0 || rep.Reads == 0 || rep.Writes == 0 {
				t.Fatalf("workload did not run: %+v", rep)
			}
		})
	}
}

func TestChaosReplayIsDeterministic(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			a := run(t, short(kind, 99))
			b := run(t, short(kind, 99))
			if a.Digest != b.Digest {
				t.Fatalf("digests diverged: %s vs %s", a.Digest, b.Digest)
			}
			if a.Faults != b.Faults {
				t.Fatalf("fault stats diverged: %+v vs %+v", a.Faults, b.Faults)
			}
			if a.Ops != b.Ops || a.OpErrors != b.OpErrors {
				t.Fatalf("workload outcomes diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// TestObservationDoesNotPerturbReplay is the central determinism claim
// of the observability layer: attaching metrics and tracing to a chaos
// run must leave its replay digest bit-identical, because the observer
// runs on the schedule clock and never feeds stamp().
func TestObservationDoesNotPerturbReplay(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			on := short(kind, 42)
			off := on
			off.Observe = false
			a := run(t, on)
			b := run(t, off)
			if a.Digest != b.Digest {
				t.Fatalf("observation changed the digest: %s (on) vs %s (off)", a.Digest, b.Digest)
			}
			if a.Metrics == nil || a.Conformance == nil {
				t.Fatal("observed run missing metrics/conformance")
			}
			if b.Metrics != nil || b.Conformance != nil {
				t.Fatal("unobserved run carries metrics/conformance")
			}
			// The availability observatory obeys the same contract: its
			// stats and §4 verdict ride the observed report only, and (per
			// the digest check above) never feed the replay digest.
			if a.Avail == nil || a.AvailConformance == nil {
				t.Fatal("observed run missing availability stats/conformance")
			}
			if b.Avail != nil || b.AvailConformance != nil {
				t.Fatal("unobserved run carries availability stats/conformance")
			}
		})
	}
}

// TestAvailabilityConvergesToMarkovUnderChaos is the §4 counterpart of
// the §5 conformance test: a long seeded chaos schedule must yield an
// empirical availability that matches the Markov chain evaluated at
// the rates the schedule actually produced, for every scheme.
func TestAvailabilityConvergesToMarkovUnderChaos(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Defaults(kind)
			cfg.Seed = 7
			cfg.Events = 600
			cfg.OpsPerEvent = 2
			rep := run(t, cfg)
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations)
			}
			st := rep.Avail
			if st == nil || rep.AvailConformance == nil {
				t.Fatal("availability observatory missing from report")
			}
			if !rep.AvailConformance.OK {
				t.Fatalf("§4 conformance failed: %v", rep.AvailConformance.Violations())
			}
			// Enough evidence that the verdict is not vacuous.
			if st.Failures < 10 || st.Repairs < 10 {
				t.Fatalf("too few transitions for a meaningful check: %+v", st)
			}
			for _, c := range rep.AvailConformance.Checks {
				if c.Note != "" {
					t.Fatalf("vacuous conformance check: %+v", c)
				}
			}
			// The measured rates recover the schedule's configured ratio.
			if st.Rho <= 0 || st.Rho > 2*cfg.Rho {
				t.Fatalf("measured rho %v implausible for configured %v", st.Rho, cfg.Rho)
			}
			// The workload's op outcomes landed in the per-op table.
			if st.OpAvailability <= 0 || len(st.Ops) != 2 {
				t.Fatalf("op table = %+v", st.Ops)
			}
			// Replaying the identical schedule reproduces the identical
			// estimate — the observatory is as deterministic as the digest.
			again := run(t, cfg)
			if again.Avail == nil || again.Avail.SystemAvailability != st.SystemAvailability {
				t.Fatalf("availability estimate not reproducible: %v vs %v",
					again.Avail.SystemAvailability, st.SystemAvailability)
			}
		})
	}
}

// TestConformanceHoldsUnderFaults pins the new invariant down: even
// with drops, reply losses, timeouts, partitions, and failed recovery
// attempts, the per-attempt message means stay inside the §5 brackets.
func TestConformanceHoldsUnderFaults(t *testing.T) {
	rep := run(t, short(core.Voting, 13))
	if rep.Conformance == nil {
		t.Fatal("no conformance report")
	}
	if !rep.Conformance.OK {
		t.Fatalf("bracket conformance failed: %v", rep.Conformance.Checks)
	}
	if rep.Conformance.Strict {
		t.Fatal("chaos must use bracket mode, not strict")
	}
	if len(rep.Conformance.Checks) != 3 {
		t.Fatalf("checks = %d, want 3 (write, read, recovery)", len(rep.Conformance.Checks))
	}
	// The snapshot actually carries the workload's counters.
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("metrics snapshot empty")
	}
}

func TestChaosDifferentSeedsDifferentSchedules(t *testing.T) {
	a := run(t, short(core.Voting, 1))
	b := run(t, short(core.Voting, 2))
	if a.Digest == b.Digest {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}

func TestVotingMenuInjectsMessageFaults(t *testing.T) {
	rep := run(t, short(core.Voting, 5))
	if rep.Faults.Drops == 0 && rep.Faults.ReplyLosses == 0 && rep.Faults.Timeouts == 0 {
		t.Fatalf("voting menu injected no message faults: %+v", rep.Faults)
	}
}

func TestAvailCopyMenuIsLossFree(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.AvailableCopy, core.NaiveAvailableCopy} {
		rep := run(t, short(kind, 5))
		if rep.Faults.Drops != 0 || rep.Faults.ReplyLosses != 0 || rep.Faults.Timeouts != 0 {
			t.Fatalf("%v menu injected message loss (§6 forbids it): %+v", kind, rep.Faults)
		}
	}
}

func TestChaosConfigValidation(t *testing.T) {
	bad := []Config{
		{Scheme: core.Voting, Sites: 1, Blocks: 4, Events: 10, Rho: 0.2},
		{Scheme: core.Voting, Sites: 3, Blocks: 0, Events: 10, Rho: 0.2},
		{Scheme: core.Voting, Sites: 3, Blocks: 4, Events: 0, Rho: 0.2},
		{Scheme: core.Voting, Sites: 3, Blocks: 4, Events: 10, Rho: 0},
		{Scheme: core.Voting, Sites: 3, Blocks: 4, Events: 10, OpsPerEvent: -1, Rho: 0.2},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestChaosHonoursContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, short(core.Voting, 1)); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// TestFlightRecordingDoesNotPerturbReplay extends the determinism
// claim to the diagnosis tier: the flight recorder and health engine
// only read snapshots on the shared schedule clock, so attaching them
// must leave the replay digest bit-identical.
func TestFlightRecordingDoesNotPerturbReplay(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			on := short(kind, 42)
			off := on
			off.Flight = false
			a := run(t, on)
			b := run(t, off)
			if a.Digest != b.Digest {
				t.Fatalf("flight recording changed the digest: %s (on) vs %s (off)", a.Digest, b.Digest)
			}
			if a.Health == nil {
				t.Fatal("flight-enabled run missing the health verdict")
			}
			if b.Health != nil || b.Flight != nil {
				t.Fatal("flight-disabled run carries health/flight state")
			}
			// Chaos injects real faults, so a critical health breach or an
			// exhausted SLO error budget (and with it a sealed dump) is
			// legitimate even with zero invariant violations — but any seal
			// in such a run must come from one of those observation planes,
			// and the dump must carry frames.
			if len(a.Violations) == 0 && a.Flight != nil {
				if !strings.HasPrefix(a.Flight.Trigger, "health: ") && !strings.HasPrefix(a.Flight.Trigger, "slo ") {
					t.Fatalf("violation-free run sealed with trigger %q, want a health or slo trigger", a.Flight.Trigger)
				}
				if a.Flight.Steps == 0 || len(a.Flight.Timeseries.Series) == 0 {
					t.Fatal("sealed dump holds no steps of the ring")
				}
			}
		})
	}
}

// TestFlightHealthVerdictIsDeterministic: the health verdict riding
// the report replays identically in every observable rule outcome —
// severity, firing, latching, measured values, details, and the
// timestamps, which are schedule ticks.
func TestFlightHealthVerdictIsDeterministic(t *testing.T) {
	a := run(t, short(core.Voting, 99))
	b := run(t, short(core.Voting, 99))
	aj, err := json.Marshal(a.Health)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Health)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("health verdicts diverged:\n%s\n---\n%s", aj, bj)
	}
	if a.Health.Overall >= alert.Critical {
		t.Fatalf("healthy replay reports critical: %+v", a.Health)
	}
}

// TestViolationSealsFlight forces an invariant violation (available
// copies under partition-induced staleness is not the target here;
// instead we drive the engine's violatef directly) and checks the
// first trigger seals the ring exactly once with the frames intact.
func TestViolationSealsFlight(t *testing.T) {
	cfg := short(core.Voting, 7)
	e := &engine{cfg: cfg, report: &Report{}, hash: fnv.New64a()}
	var err error
	e.plane, err = plane.New(plane.Config{Metered: true, Clock: clock.NewManual(), Flight: true})
	if err != nil {
		t.Fatal(err)
	}
	e.plane.Step()
	e.violatef("first invariant broke")
	e.plane.Step()
	e.violatef("second invariant broke")
	if len(e.report.Violations) != 2 {
		t.Fatalf("violations = %v", e.report.Violations)
	}
	dump := e.plane.Sealed()
	if dump == nil {
		t.Fatal("violation did not seal the flight ring")
	}
	if dump.Trigger != "violation: first invariant broke" {
		t.Fatalf("trigger = %q, want the FIRST violation", dump.Trigger)
	}
	if dump.Steps != 1 {
		t.Fatalf("dump steps = %d, want 1", dump.Steps)
	}
}

// TestReportBytesStableAcrossGOMAXPROCS is the whole-report form of the
// replay claim: with every plane on — observer and tracer, flight
// recorder and health engine, tsdb ring and SLO engine — the marshalled
// Report (metrics, health, flight frames and trace tails, SLO
// evaluation and alert log, not only the digest) is the same bytes on
// one, two and four Ps. It holds because nothing in the report reads a
// clock that moves on its own: the engine's schedule clock ticks at
// schedule points only.
func TestReportBytesStableAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Defaults(kind)
			cfg.Seed = 11
			cfg.Events = 24
			cfg.OpsPerEvent = 4
			// Enough churn that voting loses quorum, fires and clears an
			// SLO alert and seals a flight dump.
			cfg.Rho = 0.5
			var want []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for i := 0; i < 10; i++ {
					got, err := json.Marshal(run(t, cfg))
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
						continue
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("GOMAXPROCS=%d run %d: report differs from the first run (%d vs %d bytes)\n%s",
							procs, i, len(got), len(want), firstDiff(want, got))
					}
				}
			}
			var rep Report
			if err := json.Unmarshal(want, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Metrics == nil || rep.Health == nil || rep.SLO == nil {
				t.Fatalf("a plane is missing from the compared report: metrics=%v health=%v slo=%v",
					rep.Metrics != nil, rep.Health != nil, rep.SLO != nil)
			}
		})
	}
}

// firstDiff shows both reports around their first differing byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-200, 0)
	return "want ..." + string(a[lo:min(i+200, len(a))]) + "...\n got ..." + string(b[lo:min(i+200, len(b))]) + "..."
}
