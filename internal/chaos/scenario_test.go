package chaos

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/core"
	"relidev/internal/protocol"
	"relidev/internal/repair"
	"relidev/internal/simnet"
)

// donorKillScenario is the acceptance scenario for mid-stream repair
// failover: a voting cluster readmits a stale site, the repairer
// enlists the donors, and a seeded fault rule crashes one donor after
// its first served page. The run must still converge via the surviving
// donors, and the whole scenario — outcome counters and final image —
// must be a pure function of the seed. Returns a digest of everything
// that must replay bit-identically.
func donorKillScenario(t *testing.T, seed uint64) string {
	t.Helper()
	ctx := context.Background()
	const blocks = 24
	pol := repair.Policy{
		PageBlocks:         4,
		MaxInFlightPerPeer: 1,
		RetryBase:          time.Millisecond,
		RetryMax:           8 * time.Millisecond,
		Seed:               seed,
		Clock:              clock.NewManual(),
	}
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    4,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: blocks},
		Scheme:   core.Voting,
		Repair:   &pol,
	})
	if err != nil {
		t.Fatal(err)
	}

	write := func(site protocol.SiteID, seq int) {
		ctrl, cerr := cl.Controller(site)
		if cerr != nil {
			t.Fatal(cerr)
		}
		for b := 0; b < blocks; b++ {
			data := make([]byte, 32)
			copy(data, fmt.Sprintf("s%d.b%d", seq, b))
			if werr := ctrl.Write(ctx, block.Index(b), data); werr != nil {
				t.Fatalf("write seq %d block %d: %v", seq, b, werr)
			}
		}
	}

	write(0, 1)
	if err := cl.Fail(0); err != nil {
		t.Fatal(err)
	}
	// Site 0 misses this entire round: on readmission the repairer has
	// a full device's worth of staleness to stream.
	write(1, 2)

	// The kill switch: donor 1 serves exactly one repair page, then
	// every further repair fetch to it fails conclusively — a crash mid
	// stream, scoped to repair traffic so scheme recovery is untouched.
	var mu sync.Mutex
	served := 0
	cl.Network().SetFaultRule(func(from, to protocol.SiteID, req protocol.Request) (simnet.FaultDecision, error) {
		if _, isFetch := req.(protocol.RepairFetchRequest); !isFetch || to != 1 {
			return simnet.Deliver, nil
		}
		mu.Lock()
		defer mu.Unlock()
		served++
		if served > 1 {
			return simnet.DropRequest, fmt.Errorf("scenario: donor 1 crashed mid-repair: %w", protocol.ErrSiteDown)
		}
		return simnet.Deliver, nil
	})

	if err := cl.Restart(ctx, 0); err != nil {
		t.Fatal(err)
	}
	cl.Network().SetFaultRule(nil)

	outs := cl.TakeRepairOutcomes()
	if len(outs) != 1 {
		t.Fatalf("repair outcomes = %d, want 1", len(outs))
	}
	out := outs[0]
	if out.Err != nil {
		t.Fatalf("repair with donor kill failed: %v", out.Err)
	}
	res := out.Result
	if res.Stale == 0 {
		t.Fatal("scenario produced no staleness; donor kill untested")
	}
	if res.Demotions < 1 {
		t.Fatalf("demotions = %d, want the killed donor demoted", res.Demotions)
	}
	if res.Installed == 0 {
		t.Fatal("repair installed nothing")
	}

	// Convergence: the repaired site's image matches a surviving donor's.
	rep0, _ := cl.Replica(0)
	rep2, _ := cl.Replica(2)
	if !rep0.Vector().Equal(rep2.Vector()) {
		t.Fatalf("site 0 vector %v diverges from donor %v after failover", rep0.Vector(), rep2.Vector())
	}

	digest := fmt.Sprintf("stale=%d installed=%d pages=%d demotions=%d donors=%v vec=%v",
		res.Stale, res.Installed, res.Pages, res.Demotions, res.Donors, rep0.Vector())
	return digest
}

// TestDonorKillMidRepairFailsOverDeterministically is the ISSUE's
// acceptance scenario: a seeded schedule that kills a donor mid-repair
// still converges via failover, bit-identically on replay.
func TestDonorKillMidRepairFailsOverDeterministically(t *testing.T) {
	a := donorKillScenario(t, 7)
	b := donorKillScenario(t, 7)
	if a != b {
		t.Fatalf("scenario replay diverged:\n  %s\n  %s", a, b)
	}
}

// TestRepairBoundedTimeToFreshness pins the standing invariant's
// evidence: chaos runs with recoveries actually exercise repair (the
// voting scheme's lazy recovery leaves staleness behind), every run
// meets its deadline, and the samples replay bit-identically.
func TestRepairBoundedTimeToFreshness(t *testing.T) {
	rep := run(t, short(core.Voting, 7))
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if len(rep.Repair) == 0 {
		t.Fatal("no repair runs in a schedule full of recoveries")
	}
	streamed := 0
	for _, s := range rep.Repair {
		if !s.OK {
			t.Fatalf("repair run broke its deadline: %+v", s)
		}
		if s.Stale > 0 {
			streamed++
			if s.ElapsedNS > s.DeadlineNS {
				t.Fatalf("elapsed %d ns over deadline %d ns: %+v", s.ElapsedNS, s.DeadlineNS, s)
			}
		}
	}
	if streamed == 0 {
		t.Fatal("every repair run found zero staleness; lazy recovery should leave work behind")
	}
	again := run(t, short(core.Voting, 7))
	if !reflect.DeepEqual(rep.Repair, again.Repair) {
		t.Fatal("repair samples (manual-clock elapsed included) did not replay identically")
	}
}

// TestRepairDisabledRunsClean: turning repair off removes the samples
// and the repairers without disturbing the run.
func TestRepairDisabledRunsClean(t *testing.T) {
	cfg := short(core.AvailableCopy, 7)
	cfg.Repair = false
	rep := run(t, cfg)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Repair != nil {
		t.Fatalf("repair disabled but %d samples reported", len(rep.Repair))
	}
}
