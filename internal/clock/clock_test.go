package clock

import (
	"context"
	"sync"
	"testing"
	"time"
)

func fired(t *Timer) bool {
	select {
	case <-t.C:
		return true
	default:
		return false
	}
}

func TestManualStartsAtEpochAndMovesOnlyOnAdvance(t *testing.T) {
	m := NewManual()
	for i := 0; i < 3; i++ {
		if got := m.Now().UnixNano(); got != 0 {
			t.Fatalf("reading %d = %d; reading the clock must not move it", i, got)
		}
	}
	m.Advance(3 * time.Second)
	m.Advance(0)
	m.Advance(-time.Second)
	if got := m.Now().Sub(time.Unix(0, 0)); got != 3*time.Second {
		t.Fatalf("after Advance(3s) clock reads +%v", got)
	}
	if elapsed(m) != 3*time.Second {
		t.Fatalf("Elapsed = %v, want 3s", elapsed(m))
	}
}

func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	// Created out of deadline order; two share a deadline.
	late := m.NewTimer(30 * time.Millisecond)
	early := m.NewTimer(10 * time.Millisecond)
	mid1 := m.NewTimer(20 * time.Millisecond)
	mid2 := m.NewTimer(20 * time.Millisecond)
	never := m.NewTimer(time.Hour)

	m.Advance(5 * time.Millisecond)
	for _, tm := range []*Timer{late, early, mid1, mid2, never} {
		if fired(tm) {
			t.Fatal("a timer fired before its deadline")
		}
	}

	m.Advance(25 * time.Millisecond) // now = 30ms: everything but never is due
	want := []struct {
		tm *Timer
		at time.Duration
	}{{early, 10 * time.Millisecond}, {mid1, 20 * time.Millisecond}, {mid2, 20 * time.Millisecond}, {late, 30 * time.Millisecond}}
	var prev time.Time
	for i, w := range want {
		select {
		case at := <-w.tm.C:
			if got := at.Sub(time.Unix(0, 0)); got != w.at {
				t.Fatalf("timer %d delivered deadline +%v, want +%v", i, got, w.at)
			}
			if at.Before(prev) {
				t.Fatalf("timer %d fired out of deadline order", i)
			}
			prev = at
		default:
			t.Fatalf("timer %d did not fire once time passed it", i)
		}
	}
	if fired(never) {
		t.Fatal("the one-hour timer fired at +30ms")
	}
	if got := m.Now().Sub(time.Unix(0, 0)); got != 30*time.Millisecond {
		t.Fatalf("clock reads +%v after the advances, want +30ms", got)
	}
}

func TestManualTimerStop(t *testing.T) {
	m := NewManual()
	stopped := m.NewTimer(time.Second)
	if !stopped.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	kept := m.NewTimer(time.Second)
	m.Advance(time.Second)
	if fired(stopped) {
		t.Fatal("a stopped timer fired")
	}
	if !fired(kept) {
		t.Fatal("the timer beside a stopped one did not fire")
	}
	if kept.Stop() {
		t.Fatal("Stop after firing reported true")
	}
	if !fired(m.NewTimer(0)) {
		t.Fatal("a zero-delay timer did not fire at once")
	}
}

func TestManualSleepAdvancesWithoutBlocking(t *testing.T) {
	m := NewManual()
	tm := m.NewTimer(90 * time.Minute)
	start := time.Now()
	m.Sleep(context.Background(), time.Hour)
	m.Sleep(context.Background(), 30*time.Minute)
	if elapsed(m) != 90*time.Minute {
		t.Fatalf("Elapsed = %v, want 1h30m", elapsed(m))
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("Manual.Sleep blocked for %v", wall)
	}
	if !fired(tm) {
		t.Fatal("Sleep carried time past a timer without firing it")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Sleep(ctx, time.Hour)
	if elapsed(m) != 90*time.Minute {
		t.Fatalf("Sleep under a done ctx advanced the clock to %v", elapsed(m))
	}
}

// Concurrent Advance, Sleep, Now and timer traffic: race-clean, readings
// never go backwards, and the total is the sum of the advances.
func TestManualConcurrentAdvanceAndNow(t *testing.T) {
	const writers, readers, perG = 4, 4, 500
	m := NewManual()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					m.Advance(time.Microsecond)
				} else {
					m.Sleep(context.Background(), time.Microsecond)
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev time.Time
			for i := 0; i < perG; i++ {
				now := m.Now()
				if now.Before(prev) {
					t.Errorf("clock went backwards: %v then %v", prev, now)
					return
				}
				prev = now
				tm := m.NewTimer(time.Duration(i%7) * time.Microsecond)
				if i%2 == 0 {
					tm.Stop()
				}
			}
		}()
	}
	wg.Wait()
	if want := time.Duration(writers*perG) * time.Microsecond; elapsed(m) != want {
		t.Fatalf("Elapsed = %v, want the sum of all advances %v", elapsed(m), want)
	}
}

func TestWallSleepHonoursContextAndTimerFires(t *testing.T) {
	before := time.Now()
	if Wall.Now().Before(before) {
		t.Fatal("Wall.Now is behind time.Now")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Wall.Sleep(ctx, time.Hour)
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wall.Sleep ignored a done ctx")
	}
	tm := Wall.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatal("Wall timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported true")
	}
}

func elapsed(m *Manual) time.Duration { return m.Now().Sub(time.Unix(0, 0)) }

// Manual's Nanotime is its Now in nanoseconds after every Advance and
// Sleep, whatever moved it.
func TestManualNanotimeIsNow(t *testing.T) {
	m := NewManual()
	check := func(what string) {
		t.Helper()
		if n, now := m.Nanotime(), m.Now().UnixNano(); n != now {
			t.Fatalf("after %s: Nanotime %d, Now %d", what, n, now)
		}
	}
	check("start")
	for i, d := range []time.Duration{time.Nanosecond, 0, -time.Second, 3 * time.Millisecond, time.Hour} {
		m.Advance(d)
		check("Advance")
		m.Sleep(context.Background(), time.Duration(i)*time.Microsecond)
		check("Sleep")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Sleep(ctx, time.Second)
	check("a cancelled Sleep")
}

// Wall's Nanotime never goes back, read from many goroutines at once,
// and a Now in nanoseconds falls between the Nanotimes read around it:
// both count from one base reading.
func TestWallNanotimeMonotonic(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Wall.Nanotime()
			for i := 0; i < 10000; i++ {
				n := Wall.Nanotime()
				if n < last {
					t.Errorf("Nanotime went back: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 100; i++ {
		before := Wall.Nanotime()
		now := Wall.Now().UnixNano()
		after := Wall.Nanotime()
		if now < before || now > after {
			t.Fatalf("Now %d outside the Nanotime readings around it [%d, %d]", now, before, after)
		}
	}
}
