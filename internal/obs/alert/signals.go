package alert

import (
	"fmt"
	"time"

	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// A Reading is what a Signal measured over one window of the ring.
type Reading struct {
	// Bad and Total count the window's events (samples, for a dwell).
	// Total == 0 means the window held nothing to measure: a threshold
	// does not fire on it and it burns no budget.
	Bad, Total uint64
	// Value is the quantity a threshold compares: Bad/Total for a
	// ratio, the level of a gauge, a margin.
	Value float64
	// Site names the site a gauge level was read at.
	Site string
}

// A Signal measures one condition over the trailing windowNs of the
// ring: tsdb.Newest is the newest sample alone — what a threshold
// reads, and at a host that samples and evaluates on one cadence
// exactly "since the previous evaluation" — and <= 0 the whole
// retention. Each condition the default sets alert on is written once,
// below, and used under whichever policy a set wants.
type Signal func(db *tsdb.DB, windowNs int64) Reading

// ratio is the reading of bad events out of total.
func ratio(bad, total uint64) Reading {
	r := Reading{Bad: bad, Total: total}
	if total > 0 {
		r.Value = float64(bad) / float64(total)
	}
	return r
}

// Ratio is the event ratio of two counter families, both filtered by
// match: the failed fraction of attempts, say.
func Ratio(num, den string, match ...obs.Label) Signal {
	return MeanMinus(num, den, 0, match...)
}

// MeanMinus is the mean of num per den event less a constant: with
// participants over completions and the quorum size, the responder
// headroom a scheme's operations completed with. The newest sample of
// a ring holding only one is not a window — its deltas count from
// process start, not from a previous sample — so it reads as nothing.
func MeanMinus(num, den string, minus float64, match ...obs.Label) Signal {
	return func(db *tsdb.DB, windowNs int64) Reading {
		if windowNs == tsdb.Newest && db.Len() < 2 {
			return Reading{}
		}
		r := ratio(db.WindowTotal(num, windowNs, match...), db.WindowTotal(den, windowNs, match...))
		if r.Total > 0 {
			r.Value -= minus
		}
		return r
	}
}

// GaugeMax is the largest level any series of a gauge family took in
// the window, and the site that took it.
func GaugeMax(family string) Signal {
	return func(db *tsdb.DB, windowNs int64) Reading {
		level, labels, ok := db.GaugeMax(family, windowNs)
		if !ok {
			return Reading{}
		}
		return Reading{Total: 1, Value: float64(level), Site: labels["site"]}
	}
}

// HistAbove counts the observations of a latency family that landed in
// buckets above thresholdNs, out of all of them.
func HistAbove(family string, thresholdNs int64, match ...obs.Label) Signal {
	return func(db *tsdb.DB, windowNs int64) Reading {
		return ratio(db.HistAbove(family, thresholdNs, windowNs, match...))
	}
}

// GaugeDwell counts the window's samples at which a gauge family had
// been continuously non-zero for longer than deadlineNs, out of all the
// window's samples.
func GaugeDwell(family string, deadlineNs int64) Signal {
	return func(db *tsdb.DB, windowNs int64) Reading {
		// Look one deadline beyond the window so a dwell is measured
		// even for the window's oldest samples.
		look := windowNs
		if look > 0 {
			look += deadlineNs
		}
		points := db.GaugeWindow(family, look)
		if len(points) == 0 {
			return Reading{}
		}
		cut := points[len(points)-1].AtNs - windowNs
		// since is when the current contiguous non-zero stretch began;
		// a zero sample ends it.
		var bad, total uint64
		var since int64
		dwelling := false
		for _, p := range points {
			if p.Value <= 0 {
				dwelling = false
			} else if !dwelling {
				dwelling, since = true, p.AtNs
			}
			if windowNs > 0 && p.AtNs <= cut {
				continue // dwell warm-up only
			}
			total++
			if dwelling && p.AtNs-since > deadlineNs {
				bad++
			}
		}
		return ratio(bad, total)
	}
}

// The conditions the default sets are made of, one constructor each.
// Threshold limits, targets and windows come from the caller, so the
// same objective runs on wall time in a blockserver and on the schedule
// clock under chaos.

// QuorumMargin warns when a scheme's operations complete with no
// responder headroom: mean participants per completed op in the newest
// sample minus the quorum size. A margin under one means losing a
// single further site blocks the operation class.
func QuorumMargin(scheme string, quorum int) Objective {
	return Objective{
		Name:     "quorum_margin_" + scheme,
		Severity: Warn,
		Signal:   MeanMinus(obs.MetricOpParticipants, obs.MetricOpCompletions, float64(quorum), obs.L("scheme", scheme)),
		Policy:   Threshold{Limit: 1, Below: true},
	}
}

// failures is the failed fraction of attempts — quorum losses,
// transport timeouts, anything that failed the attempt.
func failures(match ...obs.Label) Signal {
	return Ratio(obs.MetricOpFailures, obs.MetricOpAttempts, match...)
}

// ErrorRate is critical while more than maxRate of the newest sample's
// attempts, over every scheme and operation, failed.
func ErrorRate(maxRate float64) Objective {
	return Objective{
		Name:     "error_rate",
		Severity: Critical,
		Signal:   failures(),
		Policy:   Threshold{Limit: maxRate},
	}
}

// WriteAvailability promises that a target fraction of a scheme's write
// attempts complete. The caller derives the target from the §4 Markov
// prediction for the deployment's failure and repair rates, so the
// alert means "writes fail more than the availability analysis says
// they should".
func WriteAvailability(scheme string, p Burn) Objective {
	return Objective{
		Name:        "write_availability_" + scheme,
		Description: fmt.Sprintf("%.4g of %s write attempts complete (§4 Markov prediction)", p.Target, scheme),
		Severity:    Critical,
		Signal:      failures(obs.L("scheme", scheme), obs.L("op", protocol.OpWrite)),
		Policy:      p,
	}
}

// BatcherOccupancy warns while some site's group-commit batches run at
// or above the saturation size: the write queue is backed up and fsync
// amortisation has hit its ceiling.
func BatcherOccupancy(saturated int64) Objective {
	return Objective{
		Name:     "batcher_occupancy",
		Severity: Warn,
		Signal:   GaugeMax(obs.MetricGroupCommitOccupancy),
		Policy:   Threshold{Limit: float64(saturated - 1)},
	}
}

// StalenessLag is critical once some site's repair backlog has stayed
// non-zero for deadlineNs — the repair policy's bounded
// time-to-freshness promise for one stale block — so lag that repair
// clears inside its promise never alerts, and lag outliving it is the
// §6 invariant failing in production.
func StalenessLag(deadlineNs int64) Objective {
	return Objective{
		Name:     "staleness_lag",
		Severity: Critical,
		Signal:   GaugeMax(obs.MetricRepairLag),
		Policy:   Threshold{ForNs: deadlineNs},
	}
}

// RepairFreshness promises that repair backlogs clear within the §13
// deadline: a sample is bad when some site's repair lag has been
// continuously non-zero for longer than deadlineNs at that sample.
func RepairFreshness(deadlineNs int64, p Burn) Objective {
	return Objective{
		Name:        "repair_freshness",
		Description: fmt.Sprintf("repair backlogs clear within %v (§13 bounded time-to-freshness)", time.Duration(deadlineNs)),
		Severity:    Critical,
		Signal:      GaugeDwell(obs.MetricRepairLag, deadlineNs),
		Policy:      p,
	}
}

// ReadLatency promises that a target fraction of a scheme's reads
// complete within thresholdNs (target 0.99 puts the threshold at the
// 99th percentile).
func ReadLatency(scheme string, thresholdNs int64, p Burn) Objective {
	return Objective{
		Name:        "read_latency_" + scheme,
		Description: fmt.Sprintf("%.4g of %s reads complete within %v", p.Target, scheme, time.Duration(thresholdNs)),
		Severity:    Critical,
		Signal:      HistAbove(obs.MetricOpLatency, thresholdNs, obs.L("scheme", scheme), obs.L("op", protocol.OpRead)),
		Policy:      p,
	}
}
