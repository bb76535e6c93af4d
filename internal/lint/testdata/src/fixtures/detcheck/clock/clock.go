// Fixtures for detcheck in the clock package itself: it is in scope so
// that the two sanctioned wall-clock touches are exactly the ones with
// a directive, and a bare time.Now anywhere else in it — a Manual clock
// consulting real time, say — is still flagged.
package clock

import "time"

type wall struct{}

// ok: the sanctioned wall-clock read carries the documented exception.
func (wall) Now() time.Time {
	//relidev:allow nondeterminism: the one sanctioned wall-clock read; replayed runs inject a Manual clock
	return time.Now()
}

// ok: so does the sanctioned timer.
func (wall) NewTimer(d time.Duration) *time.Timer {
	//relidev:allow nondeterminism: the one sanctioned wall-clock timer; replayed runs inject a Manual clock
	return time.NewTimer(d)
}

type manual struct{ ns int64 }

// ok: a manual clock derives time from what it was told.
func (m *manual) Now() time.Time { return time.Unix(0, m.ns) }

func (m *manual) badNow() time.Time {
	return time.Now() // want "time.Now in a replay-deterministic package"
}

func (m *manual) badSleep(d time.Duration) {
	time.Sleep(d) // want "time.Sleep in a replay-deterministic package"
}
