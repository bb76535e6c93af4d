package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
)

var testGeom = block.Geometry{BlockSize: 32, NumBlocks: 32}

// pattern returns the canonical payload for a block at a given version:
// every byte is the version mod 256. Torn installs — data from one
// version under another's number — are therefore detectable by
// inspection.
func pattern(ver block.Version) []byte {
	out := make([]byte, testGeom.BlockSize)
	for i := range out {
		out[i] = byte(ver)
	}
	return out
}

// harness is a simnet cluster of bare replicas (no scheme controllers):
// exactly the environment a repairer sees.
type harness struct {
	net  *simnet.Network
	reps []*site.Replica
	ids  []protocol.SiteID
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{net: simnet.New(simnet.Multicast)}
	for i := 0; i < n; i++ {
		st, err := store.NewMem(testGeom)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := site.New(site.Config{ID: protocol.SiteID(i), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		h.net.Attach(rep.ID(), rep)
		h.reps = append(h.reps, rep)
		h.ids = append(h.ids, rep.ID())
	}
	return h
}

// fill writes pattern data at the given version to blocks [lo, hi) of
// one replica.
func (h *harness) fill(t *testing.T, site int, lo, hi int, ver block.Version) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := h.reps[site].WriteLocal(block.Index(i), pattern(ver), ver); err != nil {
			t.Fatal(err)
		}
	}
}

// peersOf returns every id except self.
func (h *harness) peersOf(self int) []protocol.SiteID {
	var out []protocol.SiteID
	for _, id := range h.ids {
		if id != protocol.SiteID(self) {
			out = append(out, id)
		}
	}
	return out
}

func (h *harness) repairer(t *testing.T, self int, pol Policy, tr protocol.Transport) *Repairer {
	t.Helper()
	if tr == nil {
		tr = h.net
	}
	r, err := New(Config{
		Self:      h.reps[self],
		Transport: tr,
		Peers:     h.peersOf(self),
		Policy:    pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkConverged asserts that the self replica's image matches the
// expected donor block-for-block: same versions, same payloads.
func checkConverged(t *testing.T, self, donor *site.Replica) {
	t.Helper()
	for i := 0; i < testGeom.NumBlocks; i++ {
		idx := block.Index(i)
		wantData, wantVer, err := donor.ReadLocal(idx)
		if err != nil {
			t.Fatal(err)
		}
		gotData, gotVer, err := self.ReadLocal(idx)
		if err != nil {
			t.Fatal(err)
		}
		if gotVer != wantVer {
			t.Fatalf("block %d: version %d, want %d", i, gotVer, wantVer)
		}
		if !bytes.Equal(gotData, wantData) {
			t.Fatalf("block %d: data mismatch at version %d", i, gotVer)
		}
	}
}

// hookTransport decorates a transport with a per-destination Fetch
// interception so tests can inject faults by call count.
type hookTransport struct {
	protocol.Transport
	mu    sync.Mutex
	count map[protocol.SiteID]int
	// fetchErr decides the fate of the n-th (1-based) Fetch to a
	// destination; nil passes the call through.
	fetchErr func(to protocol.SiteID, n int) error
}

func newHookTransport(inner protocol.Transport, f func(to protocol.SiteID, n int) error) *hookTransport {
	return &hookTransport{Transport: inner, count: make(map[protocol.SiteID]int), fetchErr: f}
}

func (h *hookTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	h.mu.Lock()
	h.count[to]++
	n := h.count[to]
	h.mu.Unlock()
	if h.fetchErr != nil {
		if err := h.fetchErr(to, n); err != nil {
			return nil, err
		}
	}
	return h.Transport.Fetch(ctx, from, to, req)
}

func (h *hookTransport) fetches(to protocol.SiteID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count[to]
}

func TestRepairNoStaleIsNoOp(t *testing.T) {
	h := newHarness(t, 3)
	// Self (site 0) is as fresh as every donor; nothing to do.
	for i := 0; i < 3; i++ {
		h.fill(t, i, 0, testGeom.NumBlocks, 5)
	}
	res, err := h.repairer(t, 0, Policy{Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stale != 0 || res.Installed != 0 || res.Pages != 0 {
		t.Fatalf("no-op repair touched blocks: %+v", res)
	}
}

func TestRepairAllDonorsStaleIsNoOp(t *testing.T) {
	h := newHarness(t, 3)
	// Self is strictly ahead of both donors: repair must not regress.
	h.fill(t, 0, 0, testGeom.NumBlocks, 9)
	h.fill(t, 1, 0, testGeom.NumBlocks, 3)
	h.fill(t, 2, 0, testGeom.NumBlocks, 4)
	res, err := h.repairer(t, 0, Policy{Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stale != 0 || res.Installed != 0 {
		t.Fatalf("repair against stale donors was not a no-op: %+v", res)
	}
	for i := 0; i < testGeom.NumBlocks; i++ {
		if _, ver, _ := h.reps[0].ReadLocal(block.Index(i)); ver != 9 {
			t.Fatalf("block %d regressed to version %d", i, ver)
		}
	}
}

func TestRepairNoReachableDonorIsNoOp(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 7)
	h.fill(t, 2, 0, testGeom.NumBlocks, 7)
	h.net.SetUp(1, false)
	h.net.SetUp(2, false)
	// No peer reachable: the freshest *reachable* image is the local one,
	// so the pass vacuously succeeds and a later pass (after recovery
	// readmits peers) does the work.
	res, err := h.repairer(t, 0, Policy{Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run with no reachable donors: %v", err)
	}
	if res.Stale != 0 || res.Installed != 0 {
		t.Fatalf("unexpected work with no donors: %+v", res)
	}
}

func TestRepairStreamsFromMultipleDonors(t *testing.T) {
	h := newHarness(t, 4)
	for i := 1; i < 4; i++ {
		h.fill(t, i, 0, testGeom.NumBlocks, 6)
	}
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stale != testGeom.NumBlocks {
		t.Fatalf("Stale = %d, want %d", res.Stale, testGeom.NumBlocks)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	if len(res.Donors) != 3 {
		t.Fatalf("Donors = %v, want all three peers", res.Donors)
	}
	// 32 blocks over 3 donors at 4 blocks/page: every donor serves pages.
	if res.Pages < 3 {
		t.Fatalf("Pages = %d, want the stream spread across donors", res.Pages)
	}
	checkConverged(t, h.reps[0], h.reps[1])
}

func TestRepairConvergesToElementwiseMax(t *testing.T) {
	h := newHarness(t, 3)
	// Donor 1 is freshest on the low half, donor 2 on the high half;
	// both hold version 2 elsewhere. The repairer must converge to the
	// element-wise max, pulling each half from the donor that has it.
	half := testGeom.NumBlocks / 2
	h.fill(t, 1, 0, half, 8)
	h.fill(t, 1, half, testGeom.NumBlocks, 2)
	h.fill(t, 2, 0, half, 2)
	h.fill(t, 2, half, testGeom.NumBlocks, 8)
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stale != testGeom.NumBlocks {
		t.Fatalf("Stale = %d, want %d", res.Stale, testGeom.NumBlocks)
	}
	for i := 0; i < testGeom.NumBlocks; i++ {
		data, ver, err := h.reps[0].ReadLocal(block.Index(i))
		if err != nil {
			t.Fatal(err)
		}
		if ver != 8 {
			t.Fatalf("block %d: version %d, want element-wise max 8", i, ver)
		}
		if !bytes.Equal(data, pattern(8)) {
			t.Fatalf("block %d: payload does not match version 8", i)
		}
	}
}

func TestRepairDonorCrashMidStreamFailsOver(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	h.fill(t, 2, 0, testGeom.NumBlocks, 6)
	// Donor 1 serves exactly one page, then crashes: every later fetch
	// fails conclusively. Pages assigned to it must fail over to donor 2
	// at the wave barrier, and the run must still converge.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if to == 1 && n > 1 {
			return fmt.Errorf("injected crash: %w", protocol.ErrSiteDown)
		}
		return nil
	})
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, MaxInFlightPerPeer: 1, Clock: clock.NewManual()}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Demotions < 1 {
		t.Fatalf("Demotions = %d, want the crashed donor demoted", res.Demotions)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	checkConverged(t, h.reps[0], h.reps[2])
}

func TestRepairSurvivesWithOneDonorLeft(t *testing.T) {
	h := newHarness(t, 4)
	for i := 1; i < 4; i++ {
		h.fill(t, i, 0, testGeom.NumBlocks, 6)
	}
	// Donors 1 and 2 die on their very first fetch; only donor 3
	// survives. The documented guarantee: repair completes as long as
	// one up-to-date donor stays reachable.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if to == 1 || to == 2 {
			return fmt.Errorf("injected crash: %w", protocol.ErrSiteDown)
		}
		return nil
	})
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, MaxInFlightPerPeer: 1, Clock: clock.NewManual()}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Demotions != 2 {
		t.Fatalf("Demotions = %d, want 2", res.Demotions)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	checkConverged(t, h.reps[0], h.reps[3])
}

func TestRepairPartitionDuringRepair(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	h.fill(t, 2, 0, testGeom.NumBlocks, 6)
	// Donor 1 drops behind a partition after its first page: simnet
	// reports it unreachable from then on. The repairer must classify
	// that as conclusive and converge via donor 2.
	var once sync.Once
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if to == 1 && n > 1 {
			once.Do(func() {
				h.net.SetPartition(1, 1)
			})
		}
		return nil
	})
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, MaxInFlightPerPeer: 1, Clock: clock.NewManual()}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	checkConverged(t, h.reps[0], h.reps[2])
}

func TestRepairRetriesTransientFaults(t *testing.T) {
	h := newHarness(t, 2)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	// The single donor's first two fetches fail transiently; the
	// repairer must back off and retry the same donor, not demote it.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if n <= 2 {
			return fmt.Errorf("injected blip: %w", protocol.ErrTransient)
		}
		return nil
	})
	clk := clock.NewManual()
	res, err := h.repairer(t, 0, Policy{
		PageBlocks:         testGeom.NumBlocks, // one page: the faults hit it
		MaxInFlightPerPeer: 1,
		RetryBase:          10 * time.Millisecond,
		Clock:              clk,
	}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", res.Retries)
	}
	if res.Demotions != 0 {
		t.Fatalf("Demotions = %d, want 0 (transient faults retry in place)", res.Demotions)
	}
	// Two backoff sleeps happened on the injected clock: at least
	// base/2 + 2*base/2 = 15ms advanced.
	if elapsed(clk) < 15*time.Millisecond {
		t.Fatalf("clock advanced %v, want backoff sleeps on the manual clock", elapsed(clk))
	}
	checkConverged(t, h.reps[0], h.reps[1])
}

func TestRepairSeveredStreamDemotesWithoutRetry(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	h.fill(t, 2, 0, testGeom.NumBlocks, 6)
	// A severed exchange wraps both ErrSevered and ErrTransient (the
	// rpcnet classification); the repairer must treat it as conclusive —
	// demote immediately, zero retries against the dead donor.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if to == 1 {
			return fmt.Errorf("injected sever: %w: %w", protocol.ErrSevered, protocol.ErrTransient)
		}
		return nil
	})
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, MaxInFlightPerPeer: 1, Clock: clock.NewManual()}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (severed is conclusive)", res.Retries)
	}
	if res.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", res.Demotions)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	checkConverged(t, h.reps[0], h.reps[2])
}

func TestRepairExhaustsRetriesThenDemotes(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	h.fill(t, 2, 0, testGeom.NumBlocks, 6)
	// Donor 1 fails transiently forever: after MaxAttemptsPerPage the
	// repairer gives up on it and fails the page over to donor 2.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		if to == 1 {
			return fmt.Errorf("injected blip: %w", protocol.ErrTransient)
		}
		return nil
	})
	res, err := h.repairer(t, 0, Policy{
		PageBlocks:         4,
		MaxInFlightPerPeer: 1,
		MaxAttemptsPerPage: 3,
		RetryBase:          time.Millisecond,
		Clock:              clock.NewManual(),
	}, tr).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", res.Demotions)
	}
	if res.Retries < 2 {
		t.Fatalf("Retries = %d, want the attempts before demotion counted", res.Retries)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	checkConverged(t, h.reps[0], h.reps[2])
}

func TestRepairLaggingDonorOmissionFailsOver(t *testing.T) {
	h := newHarness(t, 3)
	// Donor 1 has the higher version sum (fresh at 9 on the low half,
	// version 1 elsewhere) so it sorts first, but the high half's
	// freshest copy lives only on donor 2 (version 5 everywhere). Pages
	// sent to donor 1 for high-half blocks come back without them
	// (below the MinVersion floor); those wants must fail over to
	// donor 2 on the next wave.
	half := testGeom.NumBlocks / 2
	h.fill(t, 1, 0, half, 9)
	h.fill(t, 1, half, testGeom.NumBlocks, 1)
	h.fill(t, 2, 0, testGeom.NumBlocks, 5)
	res, err := h.repairer(t, 0, Policy{PageBlocks: 8, MaxInFlightPerPeer: 1, Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	for i := 0; i < testGeom.NumBlocks; i++ {
		want := block.Version(9)
		if i >= half {
			want = 5
		}
		if _, ver, _ := h.reps[0].ReadLocal(block.Index(i)); ver != want {
			t.Fatalf("block %d: version %d, want %d", i, ver, want)
		}
	}
}

func TestRepairRateLimiterPacesOnInjectedClock(t *testing.T) {
	h := newHarness(t, 2)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	clk := clock.NewManual()
	res, err := h.repairer(t, 0, Policy{
		PageBlocks:   8,
		BlocksPerSec: 64, // 32 blocks at 64/s with burst 8: ≥ 375ms of pacing
		Clock:        clk,
	}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Installed != testGeom.NumBlocks {
		t.Fatalf("Installed = %d, want %d", res.Installed, testGeom.NumBlocks)
	}
	if elapsed(clk) < 300*time.Millisecond {
		t.Fatalf("rate limiter advanced the clock only %v; pacing missing", elapsed(clk))
	}
	if elapsed(clk) > 2*time.Second {
		t.Fatalf("rate limiter overslept: %v", elapsed(clk))
	}
}

func TestRepairIgnoresWitnessAndComatoseDonors(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	h.fill(t, 2, 0, testGeom.NumBlocks, 9)
	// The freshest peer is comatose: its copy may be mid-recovery, so
	// it must not donate. Repair converges to the freshest *available*
	// peer instead.
	h.reps[2].SetState(protocol.StateComatose)
	res, err := h.repairer(t, 0, Policy{Clock: clock.NewManual()}, nil).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Donors) != 1 || res.Donors[0] != 1 {
		t.Fatalf("Donors = %v, want just the available peer 1", res.Donors)
	}
	checkConverged(t, h.reps[0], h.reps[1])
}

func TestRepairIncompleteWhenLastDonorDies(t *testing.T) {
	h := newHarness(t, 2)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	// The only donor answers discovery but every fetch fails
	// conclusively — and it stays discoverable, so re-discovery keeps
	// finding an unreachable target. The run must bound itself via
	// MaxRounds and report the staleness honestly.
	tr := newHookTransport(h.net, func(to protocol.SiteID, n int) error {
		return fmt.Errorf("injected crash: %w", protocol.ErrSiteDown)
	})
	res, err := h.repairer(t, 0, Policy{PageBlocks: 4, MaxRounds: 2, Clock: clock.NewManual()}, tr).Run(context.Background())
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Run = %v, want ErrIncomplete", err)
	}
	if res.Installed != 0 {
		t.Fatalf("Installed = %d with every fetch failing", res.Installed)
	}
	if res.Rounds != 2 {
		t.Fatalf("Rounds = %d, want the full budget spent", res.Rounds)
	}
}

func TestRepairCancelledContext(t *testing.T) {
	h := newHarness(t, 2)
	h.fill(t, 1, 0, testGeom.NumBlocks, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := h.repairer(t, 0, Policy{Clock: clock.NewManual()}, nil).Run(ctx)
	if err == nil {
		t.Fatal("Run on a cancelled context succeeded")
	}
}

// TestRepairRacesForegroundWrites is the -race hammer: foreground
// writers bump blocks through ascending versions while a repairer
// streams the same blocks from two donors. The invariants: versions
// never regress, and every block's payload always matches its version
// (no torn installs).
func TestRepairRacesForegroundWrites(t *testing.T) {
	h := newHarness(t, 3)
	h.fill(t, 1, 0, testGeom.NumBlocks, 50)
	h.fill(t, 2, 0, testGeom.NumBlocks, 50)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers race repair installs on every block with versions
	// interleaved both below and above the donors' (50): some repair
	// installs must lose, some must win, none may tear.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ver := block.Version(40 + w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < testGeom.NumBlocks; i++ {
					if _, err := h.reps[0].StageLocal(block.Index(i), pattern(ver), ver); err != nil {
						t.Error(err)
						return
					}
				}
				ver += 4
				if ver > 60 {
					ver = block.Version(40 + w)
				}
			}
		}(w)
	}
	// Readers continuously check the torn-install invariant mid-flight.
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < testGeom.NumBlocks; i++ {
					data, ver, err := h.reps[0].ReadLocal(block.Index(i))
					if err != nil {
						t.Error(err)
						return
					}
					if ver != 0 && !bytes.Equal(data, pattern(ver)) {
						t.Errorf("torn install: block %d at version %d has foreign payload", i, ver)
						return
					}
				}
			}
		}()
	}

	rep := h.repairer(t, 0, Policy{PageBlocks: 4, MaxInFlightPerPeer: 2, Clock: clock.NewManual()}, nil)
	for pass := 0; pass < 5; pass++ {
		if _, err := rep.Run(context.Background()); err != nil {
			t.Fatalf("Run pass %d: %v", pass, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final sweep: monotone — every block at least at the donors' 50
	// (repair or a ≥50 foreground write), and payload matches version.
	for i := 0; i < testGeom.NumBlocks; i++ {
		data, ver, err := h.reps[0].ReadLocal(block.Index(i))
		if err != nil {
			t.Fatal(err)
		}
		if ver < 50 {
			t.Fatalf("block %d: version %d, want ≥ 50 after repair", i, ver)
		}
		if !bytes.Equal(data, pattern(ver)) {
			t.Fatalf("block %d: torn install at version %d", i, ver)
		}
	}
}

func TestPolicyDeadlineScalesWithStaleness(t *testing.T) {
	p := Policy{BlocksPerSec: 100, PageBlocks: 16}
	small, large := p.Deadline(10), p.Deadline(10000)
	if small <= 0 || large <= small {
		t.Fatalf("Deadline not monotone: %v then %v", small, large)
	}
	// Zero rate: deadline is pure backoff budget + slack, still positive.
	if d := (Policy{}).Deadline(100); d <= 0 {
		t.Fatalf("unlimited-rate deadline = %v", d)
	}
}

// elapsed is how far a manual clock has been advanced (slept) in total.
func elapsed(clk *clock.Manual) time.Duration { return clk.Now().Sub(time.Unix(0, 0)) }
