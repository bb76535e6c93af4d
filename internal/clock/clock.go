// Package clock is the repo's one time abstraction (DESIGN.md "Time"):
// everything that reads the time, sleeps or arms a timer — the obs
// planes, repair backoff and rate limiting, the group-commit batcher,
// the rpcnet failure detector — takes a Clock. Live hosts use Wall;
// replayed runs and tests a Manual, which moves only when told to.
package clock

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Clock reads the time, sleeps, and makes timers. Only differences
// between readings (and UnixNano stamps) are ever used.
type Clock interface {
	Now() time.Time
	// Nanotime is Now().UnixNano(), monotonic and without a time.Time.
	Nanotime() int64
	// Sleep pauses the caller for d, or less if ctx is done first.
	Sleep(ctx context.Context, d time.Duration)
	// NewTimer returns a timer that fires once, d from now.
	NewTimer(d time.Duration) *Timer
}

// A Timer delivers its firing time on C, once.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop prevents the timer from firing; it reports whether it did (false
// when the timer already fired or was stopped).
func (t *Timer) Stop() bool { return t.stop() }

// Wall is real time: the clock of every live host. Now and Nanotime add
// to one base reading the time since it, which time.Since takes from the
// monotonic clock alone: half a time.Now, and never stepping back.
//
//relidev:allow nondeterminism: the one sanctioned wall-clock read (a base, then the monotonic time since it); replayed runs inject a Manual clock
var Wall Clock = wall{base: time.Now(), since: time.Since}

type wall struct {
	base  time.Time
	since func(time.Time) time.Duration
}

func (w wall) Now() time.Time { return w.base.Add(w.since(w.base)) }

func (w wall) Nanotime() int64 { return w.base.UnixNano() + int64(w.since(w.base)) }

func (w wall) Sleep(ctx context.Context, d time.Duration) {
	t := w.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (wall) NewTimer(d time.Duration) *Timer {
	//relidev:allow nondeterminism: the one sanctioned wall-clock timer (Sleep is built on it); replayed runs inject a Manual clock
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

// Manual is a Clock on which time moves only when someone says so: the
// harness calls Advance, and Sleep advances by its argument instead of
// blocking. A reading never depends on how often the clock was read, so
// a duration measured on it is a function of the schedule that advanced
// it. It starts at UnixNano 0. Methods are safe for concurrent use.
type Manual struct {
	ns atomic.Int64 // written under mu, read lock-free by Now

	mu     sync.Mutex
	timers []*manualTimer // pending, in creation order
}

type manualTimer struct {
	deadline int64
	ch       chan time.Time // buffered: firing never blocks Advance
}

// NewManual returns a Manual clock reading the Unix epoch.
func NewManual() *Manual { return &Manual{} }

// Now implements Clock.
func (m *Manual) Now() time.Time { return time.Unix(0, m.ns.Load()) }

// Nanotime implements Clock: the counter itself.
func (m *Manual) Nanotime() int64 { return m.ns.Load() }

// Advance moves time forward by d (d <= 0 is a no-op) and fires every
// timer whose deadline it reaches, in deadline order (creation order
// among equals); a receiver a timer wakes reads a time at or past it.
func (m *Manual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.ns.Add(int64(d))
	sort.SliceStable(m.timers, func(i, j int) bool { return m.timers[i].deadline < m.timers[j].deadline })
	for len(m.timers) > 0 && m.timers[0].deadline <= now {
		m.timers[0].ch <- time.Unix(0, m.timers[0].deadline)
		m.timers = m.timers[1:]
	}
}

// Sleep implements Clock: it advances the clock by d and returns at
// once. A done ctx sleeps nothing.
func (m *Manual) Sleep(ctx context.Context, d time.Duration) {
	if ctx.Err() == nil {
		m.Advance(d)
	}
}

// NewTimer implements Clock. The timer fires when Advance (or a Sleep)
// carries time to its deadline; d <= 0 fires immediately.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{deadline: m.ns.Load() + int64(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- time.Unix(0, t.deadline)
	} else {
		m.timers = append(m.timers, t)
	}
	return &Timer{C: t.ch, stop: func() bool { return m.remove(t) }}
}

// remove drops a pending timer, reporting whether it was still pending.
func (m *Manual) remove(t *manualTimer) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.timers {
		if p == t {
			m.timers = append(m.timers[:i], m.timers[i+1:]...)
			return true
		}
	}
	return false
}
