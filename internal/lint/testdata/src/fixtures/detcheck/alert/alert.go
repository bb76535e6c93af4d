// Fixtures for detcheck in the alert engine: hysteresis streaks and
// FiredAt/ClearedAt stamps ride chaos reports that are compared across
// replays, so evaluation must take its timestamps from the injected
// clock, never poll on a wall-clock timer and never jitter its cadence
// from the global rand source. alert is already in scope via its parent
// "obs" path element; it is named explicitly so the scope survives the
// package ever moving out from under it.
package alert

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type Status struct {
	Firing    bool
	FiredAtNs int64
}

type Engine struct {
	clock  func() int64
	status map[string]*Status
}

// ok: alert transitions are stamped from the injected clock.
func (e *Engine) fire(name string) {
	st := e.status[name]
	if !st.Firing {
		st.Firing = true
		st.FiredAtNs = e.clock()
	}
}

func BadFire(e *Engine, name string) {
	st := e.status[name]
	if !st.Firing {
		st.Firing = true
		st.FiredAtNs = time.Now().UnixNano() // want "time.Now in a replay-deterministic package"
	}
}

func BadPollLoop(e *Engine, step time.Duration) *time.Ticker {
	return time.NewTicker(step) // want "time.NewTicker in a replay-deterministic package"
}

func JitteredPollInterval(base time.Duration) time.Duration {
	return base + time.Duration(rand.Int63n(int64(base))) // want "global rand.Int63n draws from the process-seeded source"
}

// ok: a sanctioned wall-clock read carries the directive and a reason.
func wallClock() int64 {
	//relidev:allow nondeterminism: default clock for live /healthz serving; deterministic harnesses inject a manual clock
	return time.Now().UnixNano()
}

func BadReport(w fmt.Writer, e *Engine) {
	for name, st := range e.status { // want "map iteration order is nondeterministic"
		fmt.Fprintf(w, "%s firing=%v\n", name, st.Firing)
	}
}

// ok: objectives are reported in sorted order, so the alert payloads and
// the chaos artifact built from it replay byte-identically.
func Report(w fmt.Writer, e *Engine) {
	names := make([]string, 0, len(e.status))
	for name := range e.status {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s firing=%v\n", name, e.status[name].Firing)
	}
}
