package flight

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"relidev/internal/clock"
)

// TestConcurrentHTTPSealDuringWraparound hammers one recorder from
// three directions at once — writers snapshotting fast enough to wrap
// the ring continuously, HTTP readers sealing through the /debug/flight
// handler, and direct telemetry-style sealers (the SLO engine's budget
// hook) — and checks every observable stays coherent. Run under -race
// this is the telemetry plane's concurrency contract: a seal taken
// mid-wraparound must still yield a well-formed, strictly-ordered dump.
func TestConcurrentHTTPSealDuringWraparound(t *testing.T) {
	// The source keeps state between frames, as MetricsDelta does: the
	// recorder, not the source, must order concurrent snapshots.
	frames := 0
	rec := New(clock.NewManual(), 8,
		Source{Name: "load", Collect: func() any { frames++; return frames }},
	)
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	const writers, sealers, rounds = 4, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Far more snapshots than capacity: the ring wraps the
				// whole time the sealers are reading it.
				rec.Snapshot(fmt.Sprintf("writer%d", w))
			}
		}(w)
	}
	errs := make(chan error, sealers*2)
	for s := 0; s < sealers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				resp, err := srv.Client().Get(srv.URL)
				if err != nil {
					errs <- err
					return
				}
				var d Dump
				if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
					resp.Body.Close()
					errs <- fmt.Errorf("dump decode: %w", err)
					return
				}
				resp.Body.Close()
				if err := checkDump(&d, 8); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				d := rec.Seal(fmt.Sprintf("slo sealer%d budget exhausted", s))
				if err := checkDump(d, 8); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if last := rec.Seal("final"); len(last.Frames) != 8 {
		t.Fatalf("final dump = %+v, want a full ring", last)
	}
}

// checkDump verifies a sealed dump is internally consistent: no more
// frames than capacity, strictly increasing sequence numbers (no torn
// reads of a frame mid-overwrite), and every frame carrying its
// observations.
func checkDump(d *Dump, capacity int) error {
	if d == nil {
		return fmt.Errorf("nil dump")
	}
	if len(d.Frames) > capacity {
		return fmt.Errorf("dump holds %d frames, capacity %d", len(d.Frames), capacity)
	}
	var prev int64
	for i, f := range d.Frames {
		if f.Seq == 0 {
			return fmt.Errorf("frame %d has zero sequence: %+v", i, f)
		}
		if f.Seq <= prev {
			return fmt.Errorf("sequence not strictly increasing at frame %d: %d after %d", i, f.Seq, prev)
		}
		prev = f.Seq
		if len(f.Observations) != 1 || f.Observations[0].Source != "load" {
			return fmt.Errorf("frame %d lost its observations: %+v", i, f)
		}
	}
	return nil
}
