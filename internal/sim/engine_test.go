package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestFailureProcessValidation(t *testing.T) {
	if _, err := NewFailureProcess(0, 0.1, 1, 1); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := NewFailureProcess(3, -1, 1, 1); err == nil {
		t.Fatal("accepted negative lambda")
	}
	if _, err := NewFailureProcess(3, 0.1, 0, 1); err == nil {
		t.Fatal("accepted mu=0")
	}
}

func TestFailureProcessAlternatesPerSite(t *testing.T) {
	p, err := NewFailureProcess(3, 0.5, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]EventKind{}
	prevAt := 0.0
	for i := 0; i < 5000; i++ {
		e, ok := p.Next()
		if !ok {
			t.Fatal("process ended unexpectedly")
		}
		if e.At < prevAt {
			t.Fatalf("time went backwards: %v after %v", e.At, prevAt)
		}
		prevAt = e.At
		if k, seen := last[e.Site]; seen && k == e.Kind {
			t.Fatalf("site %d saw %v twice in a row", e.Site, e.Kind)
		}
		last[e.Site] = e.Kind
	}
}

func TestFailureProcessNoFailures(t *testing.T) {
	p, err := NewFailureProcess(2, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("lambda=0 produced an event")
	}
}

func TestPerSiteUpFractionMatchesTheory(t *testing.T) {
	// Each site should be up ~1/(1+rho) of the time: the mean up period
	// is 1/rho and the mean repair 1, whatever the repair distribution.
	const (
		rho     = 0.25
		horizon = 100000.0
	)
	for _, repair := range []Dist{Exponential{Rate: 1}, Erlang{K: 4, Mean: 1}} {
		p, err := NewFailureProcess(1, rho, 1, 11)
		if err != nil {
			t.Fatal(err)
		}
		p.repair = repair
		up := true
		now, upTime := 0.0, 0.0
		for {
			e, ok := p.Next()
			if !ok || e.At > horizon {
				break
			}
			if up {
				upTime += e.At - now
			}
			now = e.At
			up = e.Kind == EventRepair
		}
		if up {
			upTime += horizon - now
		}
		got := upTime / horizon
		want := 1 / (1 + rho)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("%s repairs: up fraction = %v, want %v +- 0.01", repair.Name(), got, want)
		}
	}
}

func TestExpSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const samples = 200000
	for i := 0; i < samples; i++ {
		v := Exp(rng, 4)
		if v < 0 {
			t.Fatal("negative sample")
		}
		sum += v
	}
	mean := sum / samples
	if math.Abs(mean-0.25) > 0.005 {
		t.Fatalf("mean = %v, want 0.25", mean)
	}
	if !math.IsInf(Exp(rng, 0), 1) {
		t.Fatal("rate 0 should sample +Inf")
	}
}

func TestEventKindString(t *testing.T) {
	if EventFail.String() != "fail" || EventRepair.String() != "repair" {
		t.Fatal("EventKind.String mismatch")
	}
	if EventKind(9).String() != "event(9)" {
		t.Fatal("invalid EventKind.String mismatch")
	}
}
