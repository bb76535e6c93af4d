package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"relidev/internal/clock"
)

func counter(vals ...any) (Source, *int) {
	i := new(int)
	return Source{Name: "probe", Collect: func() any {
		v := vals[*i%len(vals)]
		*i++
		return v
	}}, i
}

func TestRingEviction(t *testing.T) {
	src, _ := counter("a", "b", "c", "d", "e")
	r := New(clock.NewManual(), 3, src)

	for i, reason := range []string{"r1", "r2", "r3", "r4", "r5"} {
		r.Snapshot(reason)
		if want := min(i+1, 3); r.Len() != want {
			t.Fatalf("after %d snapshots Len = %d, want %d", i+1, r.Len(), want)
		}
	}
	d := r.Seal("test")
	if d.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", d.Dropped)
	}
	if len(d.Frames) != 3 {
		t.Fatalf("sealed %d frames, want 3", len(d.Frames))
	}
	// Oldest first, and the survivors are the last three snapshots.
	for i, wantSeq := range []int64{3, 4, 5} {
		if d.Frames[i].Seq != wantSeq {
			t.Errorf("frame %d seq = %d, want %d", i, d.Frames[i].Seq, wantSeq)
		}
	}
	if d.Frames[0].Reason != "r3" || d.Frames[2].Reason != "r5" {
		t.Errorf("frame reasons = %q..%q, want r3..r5", d.Frames[0].Reason, d.Frames[2].Reason)
	}
	if d.Frames[0].Observations[0].Value != "c" {
		t.Errorf("oldest frame observation = %v, want c", d.Frames[0].Observations[0].Value)
	}
}

// TestSealIsNonDestructive: sealing copies the ring; frames keep
// accumulating and a later seal sees both old and new.
func TestSealIsNonDestructive(t *testing.T) {
	src, _ := counter(1, 2, 3)
	r := New(clock.NewManual(), 8, src)

	r.Snapshot("before")
	d1 := r.Seal("first")
	if len(d1.Frames) != 1 {
		t.Fatalf("first seal has %d frames, want 1", len(d1.Frames))
	}
	if r.Len() != 1 {
		t.Fatalf("ring emptied by seal: Len = %d, want 1", r.Len())
	}
	r.Snapshot("after")
	d2 := r.Seal("second")
	if len(d2.Frames) != 2 {
		t.Fatalf("second seal has %d frames, want 2", len(d2.Frames))
	}
	// Mutating the first dump must not alias ring storage.
	d1.Frames[0].Reason = "mutated"
	d3 := r.Seal("third")
	if d3.Frames[0].Reason != "before" {
		t.Errorf("sealed dump aliases ring storage: frame reason = %q", d3.Frames[0].Reason)
	}
}

// TestDeterministicDump: two recorders fed the same clock and sources
// produce byte-identical JSON dumps.
func TestDeterministicDump(t *testing.T) {
	run := func() []byte {
		src, _ := counter(map[string]int{"b": 2, "a": 1}, []string{"x", "y"})
		r := New(clock.NewManual(), 4, src, Probe("static", func() any { return "s" }))
		r.Snapshot("checkpoint")
		r.Snapshot("checkpoint")
		out, err := json.Marshal(r.Seal("violation"))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("dumps differ between identical runs:\n%s\n---\n%s", a, b)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Snapshot("x")
	if d := r.Seal("x"); d != nil {
		t.Errorf("nil recorder sealed %v", d)
	}
	if r.Len() != 0 {
		t.Error("nil recorder reports state")
	}
	rec := httptest.NewRecorder()
	Handler(nil)(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Errorf("nil handler status = %d, want 404", rec.Code)
	}
}

func TestHandlerSnapshotsAndSeals(t *testing.T) {
	src, calls := counter("v")
	r := New(clock.NewManual(), 4, src)
	r.Snapshot("checkpoint")

	rec := httptest.NewRecorder()
	Handler(r)(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump JSON: %v", err)
	}
	if d.Trigger != "http request" {
		t.Errorf("trigger = %q, want \"http request\"", d.Trigger)
	}
	if len(d.Frames) != 2 || d.Frames[1].Reason != "http" {
		t.Fatalf("frames = %+v, want checkpoint + http", d.Frames)
	}
	if *calls != 2 {
		t.Errorf("source collected %d times, want 2", *calls)
	}
}
