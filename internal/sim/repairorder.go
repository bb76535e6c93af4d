package sim

import (
	"fmt"
	"math"
	"math/rand"

	"relidev/internal/analysis"
)

// Dist is a positive random-variate distribution for repair times.
type Dist interface {
	// Sample draws one variate.
	Sample(rng *rand.Rand) float64
	// Name identifies the distribution.
	Name() string
	// CV returns the coefficient of variation (stddev/mean).
	CV() float64
}

// Exponential is the memoryless distribution the §4 analysis assumes
// (coefficient of variation 1).
type Exponential struct {
	// Rate is the inverse mean.
	Rate float64
}

var _ Dist = Exponential{}

// Sample implements Dist.
func (e Exponential) Sample(rng *rand.Rand) float64 { return Exp(rng, e.Rate) }

// Name implements Dist.
func (e Exponential) Name() string { return "exponential" }

// CV implements Dist.
func (e Exponential) CV() float64 { return 1 }

// Erlang is a sum of K exponential stages. With the same mean it has
// coefficient of variation 1/sqrt(K) — the "less than one" regime §4.4
// says real repair times live in.
type Erlang struct {
	// K is the stage count (K >= 1).
	K int
	// Mean is the distribution mean.
	Mean float64
}

var _ Dist = Erlang{}

// Sample implements Dist.
func (e Erlang) Sample(rng *rand.Rand) float64 {
	if e.K < 1 || e.Mean <= 0 {
		return math.Inf(1)
	}
	stageRate := float64(e.K) / e.Mean
	var sum float64
	for i := 0; i < e.K; i++ {
		sum += Exp(rng, stageRate)
	}
	return sum
}

// Name implements Dist.
func (e Erlang) Name() string { return fmt.Sprintf("erlang-%d", e.K) }

// CV implements Dist.
func (e Erlang) CV() float64 { return 1 / math.Sqrt(float64(e.K)) }

// RepairOrderConfig parameterises the §4.4 experiment.
type RepairOrderConfig struct {
	// Sites is the number of replica sites.
	Sites int
	// Rho is the failure-to-repair rate ratio (mean repair time is 1, so
	// the failure rate is Rho).
	Rho float64
	// Repair is the repair-time distribution; nil means Exponential with
	// mean 1.
	Repair Dist
	// Horizon is the simulated time span.
	Horizon float64
	// Seed makes the run reproducible.
	Seed int64
}

// RepairOrderResult reports how total-failure recoveries played out.
type RepairOrderResult struct {
	// Episodes is the number of total-failure episodes observed.
	Episodes int
	// NaiveMatchesAC counts episodes where the naive scheme's outage
	// ended at the same moment as the conventional scheme's — i.e. the
	// last site to become useful was the last one that failed, so keeping
	// was-available sets bought nothing (§4.4's argument).
	NaiveMatchesAC int
	// MeanOutageAC and MeanOutageNaive are the mean block downtimes per
	// episode under each scheme's recovery rule.
	MeanOutageAC, MeanOutageNaive float64
}

// FractionMatched returns NaiveMatchesAC / Episodes.
func (r RepairOrderResult) FractionMatched() float64 {
	if r.Episodes == 0 {
		return 0
	}
	return float64(r.NaiveMatchesAC) / float64(r.Episodes)
}

// MeasureRepairOrder reproduces the §4.4 discussion: it drives the
// conventional (Figure 7) and naive (Figure 8) availability machines
// over one identical failure/repair event stream whose repair times
// follow the given distribution, and compares when each scheme's
// total-failure outages end. With coefficients of variation below one,
// sites tend to recover in failure order, the last site to recover is
// the last that failed, and the naive scheme gives up nothing.
func MeasureRepairOrder(cfg RepairOrderConfig) (RepairOrderResult, error) {
	if cfg.Sites < 2 {
		return RepairOrderResult{}, fmt.Errorf("sim: repair-order experiment needs >= 2 sites, got %d", cfg.Sites)
	}
	if cfg.Rho <= 0 {
		return RepairOrderResult{}, fmt.Errorf("sim: rho %v must be positive (no failures, no episodes)", cfg.Rho)
	}
	if cfg.Horizon <= 0 {
		return RepairOrderResult{}, fmt.Errorf("sim: horizon %v must be positive", cfg.Horizon)
	}
	proc, err := NewFailureProcess(cfg.Sites, cfg.Rho, 1, cfg.Seed)
	if err != nil {
		return RepairOrderResult{}, err
	}
	if cfg.Repair != nil {
		proc.repair = cfg.Repair
	}
	ac, err := NewModel(analysis.SchemeAvailableCopy, cfg.Sites)
	if err != nil {
		return RepairOrderResult{}, err
	}
	na, err := NewModel(analysis.SchemeNaive, cfg.Sites)
	if err != nil {
		return RepairOrderResult{}, err
	}

	var (
		res            RepairOrderResult
		inEpisode      bool
		episodeStart   float64
		acEnd, naEnd   float64
		acDown, naDown bool
		sumAC, sumNA   float64
	)
	closeEpisode := func() {
		res.Episodes++
		sumAC += acEnd - episodeStart
		sumNA += naEnd - episodeStart
		if math.Abs(acEnd-naEnd) < 1e-12 {
			res.NaiveMatchesAC++
		}
		inEpisode = false
	}
	for {
		e, ok := proc.Next()
		if !ok || e.At >= cfg.Horizon {
			break
		}
		wasAC, wasNA := ac.Available(), na.Available()
		ac.Apply(e)
		na.Apply(e)
		nowAC, nowNA := ac.Available(), na.Available()

		// Episode bookkeeping: an episode opens when the conventional
		// scheme loses the block (total failure) and closes once both
		// schemes have it back.
		if wasAC && !nowAC {
			if inEpisode {
				// Both schemes went down again before naive recovered from
				// the previous episode; fold into the open episode.
			} else {
				inEpisode = true
				episodeStart = e.At
			}
			acDown, naDown = true, true
		}
		if !wasNA && nowNA {
			naDown = false
			naEnd = e.At
		}
		if !wasAC && nowAC {
			acDown = false
			acEnd = e.At
		}
		if inEpisode && !acDown && !naDown {
			closeEpisode()
		}
	}
	if res.Episodes > 0 {
		res.MeanOutageAC = sumAC / float64(res.Episodes)
		res.MeanOutageNaive = sumNA / float64(res.Episodes)
	}
	return res, nil
}
