// Package sim is a discrete-event simulator for the paper's site
// failure/repair model: every site alternates between up and down periods
// that are independently exponentially distributed with rates λ (failure)
// and μ (repair), as assumed throughout §4.
//
// Two kinds of experiment run on the engine:
//
//   - Availability simulations (availability.go) drive the *abstract*
//     per-scheme availability state machines of Figures 7 and 8 and the
//     voting quorum condition, measuring the fraction of time the
//     replicated block is accessible. They validate the §4 formulas
//     stochastically, the way the authors' MACSYMA algebra validated them
//     symbolically.
//
//   - Traffic simulations (traffic.go) drive the *real* protocol
//     implementations over the simulated network with the same
//     failure/repair process and a synthetic workload, counting actual
//     high-level transmissions per operation. They validate the §5 cost
//     model against running code.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// EventKind distinguishes site failures from site repairs.
type EventKind int

// Event kinds.
const (
	EventFail EventKind = iota + 1
	EventRepair
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventFail:
		return "fail"
	case EventRepair:
		return "repair"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one site state change at a point in simulated time.
type Event struct {
	At   float64
	Site int
	Kind EventKind
}

// eventQueue is a min-heap of events by time.
type eventQueue []Event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].At < q[j].At }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(Event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Exp samples an exponential variate with the given rate.
func Exp(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / rate
}

// FailureProcess generates the alternating up/down event sequence for n
// sites: up periods are exponential with rate lambda, and down periods
// are drawn from the repair distribution, exponential with rate mu
// unless the package's §4.4 experiment substitutes another.
type FailureProcess struct {
	lambda float64
	repair Dist
	rng    *rand.Rand
	queue  eventQueue
}

// NewFailureProcess starts all n sites up and schedules their first
// failures.
func NewFailureProcess(n int, lambda, mu float64, seed int64) (*FailureProcess, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: failure process needs n > 0, got %d", n)
	}
	if lambda < 0 || mu <= 0 {
		return nil, fmt.Errorf("sim: rates lambda=%v mu=%v invalid (need lambda >= 0, mu > 0)", lambda, mu)
	}
	p := &FailureProcess{lambda: lambda, repair: Exponential{Rate: mu}, rng: rand.New(rand.NewSource(seed))}
	for s := 0; s < n; s++ {
		heap.Push(&p.queue, Event{At: Exp(p.rng, lambda), Site: s, Kind: EventFail})
	}
	return p, nil
}

// Next returns the next event and schedules the site's following
// transition. With lambda = 0 no failures ever occur and ok is false.
func (p *FailureProcess) Next() (Event, bool) {
	if p.queue.Len() == 0 {
		return Event{}, false
	}
	e := heap.Pop(&p.queue).(Event)
	if math.IsInf(e.At, 1) {
		return Event{}, false
	}
	switch e.Kind {
	case EventFail:
		heap.Push(&p.queue, Event{At: e.At + p.repair.Sample(p.rng), Site: e.Site, Kind: EventRepair})
	case EventRepair:
		heap.Push(&p.queue, Event{At: e.At + Exp(p.rng, p.lambda), Site: e.Site, Kind: EventFail})
	}
	return e, true
}
