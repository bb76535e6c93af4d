package slo

import (
	"fmt"
	"time"

	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// The standard objective set: one SLO per promise the repo's analyses
// make. Each constructor is pure declaration — windows, threshold, and
// clock scale come from the caller, so the same objective runs on wall
// time in a blockserver and on the schedule clock under chaos.

// Windows bundles the per-deployment burn-rate tuning.
type Windows struct {
	FastNs, SlowNs int64
	Burn           float64
}

// apply stamps w onto s (zero fields keep the package defaults).
func (w Windows) apply(s SLO) SLO {
	s.FastNs, s.SlowNs, s.Burn = w.FastNs, w.SlowNs, w.Burn
	return s
}

// ReadLatency promises that a target fraction of a scheme's reads
// complete within thresholdNs (the p99 objective: target 0.99 puts the
// threshold at the 99th percentile). Bad events are reads landing in
// buckets above the threshold.
func ReadLatency(scheme string, thresholdNs int64, target float64, w Windows) SLO {
	return w.apply(SLO{
		Name:        "read_latency_" + scheme,
		Description: fmt.Sprintf("%.4g of %s reads complete within %v", target, scheme, time.Duration(thresholdNs)),
		Target:      target,
		Eval: func(db *tsdb.DB, windowNs int64) (bad, total uint64) {
			h := db.WindowHist(obs.MetricOpLatency, windowNs,
				obs.L("scheme", scheme), obs.L("op", protocol.OpRead))
			var good uint64
			for _, b := range h.Buckets {
				if b.UpperNs >= 0 && b.UpperNs <= thresholdNs {
					good += b.Count
				}
			}
			return h.Count - good, h.Count
		},
	})
}

// WriteAvailability promises that a target fraction of a scheme's
// write attempts complete. The caller derives the target from the §4
// Markov prediction for the deployment's failure/repair rates (e.g.
// relidev.PredictAvailability), so the alert means "writes are failing
// more than the availability analysis says they should".
func WriteAvailability(scheme string, target float64, w Windows) SLO {
	return w.apply(SLO{
		Name:        "write_availability_" + scheme,
		Description: fmt.Sprintf("%.4g of %s write attempts complete (§4 Markov prediction)", target, scheme),
		Target:      target,
		Eval: func(db *tsdb.DB, windowNs int64) (bad, total uint64) {
			match := []obs.Label{obs.L("scheme", scheme), obs.L("op", protocol.OpWrite)}
			bad = db.WindowTotal(obs.MetricOpFailures, windowNs, match...)
			total = db.WindowTotal(obs.MetricOpAttempts, windowNs, match...)
			return bad, total
		},
	})
}

// RepairFreshness promises that repair backlogs clear within the §13
// deadline: a telemetry sample is bad when some site's repair lag has
// been continuously non-zero for longer than deadlineNs at that
// sample. Target is the promised fraction of samples with fresh (or
// freshly-repairing) replicas.
func RepairFreshness(deadlineNs int64, target float64, w Windows) SLO {
	return w.apply(SLO{
		Name:        "repair_freshness",
		Description: fmt.Sprintf("repair backlogs clear within %v (§13 bounded time-to-freshness)", time.Duration(deadlineNs)),
		Target:      target,
		Eval: func(db *tsdb.DB, windowNs int64) (bad, total uint64) {
			// Look one deadline beyond the window so a backlog's dwell is
			// measured even for the window's oldest samples.
			look := windowNs
			if look > 0 {
				look += deadlineNs
			}
			points := db.GaugeWindow(obs.MetricRepairLag, look)
			if len(points) == 0 {
				return 0, 0
			}
			cut := points[len(points)-1].AtNs - windowNs
			// staleSince tracks when the current contiguous non-zero-lag
			// stretch began; fresh samples reset it.
			var staleSince int64
			haveStale := false
			for _, p := range points {
				if p.Value <= 0 {
					haveStale = false
				} else if !haveStale {
					haveStale, staleSince = true, p.AtNs
				}
				if windowNs > 0 && p.AtNs <= cut {
					continue // dwell warm-up only
				}
				total++
				if haveStale && p.AtNs-staleSince > deadlineNs {
					bad++
				}
			}
			return bad, total
		},
	})
}

// ConformanceDrift promises that a scheme's stale-read exposure stays
// within what its consistency analysis allows: maxStaleFrac is 0 for
// voting (§4 forbids stale reads) and the accepted exposure for the
// available-copy schemes, so the target is 1-maxStaleFrac over read
// completions.
func ConformanceDrift(scheme string, maxStaleFrac float64, w Windows) SLO {
	return w.apply(SLO{
		Name:        "conformance_drift_" + scheme,
		Description: fmt.Sprintf("%s stale-read fraction stays within %.4g (§5 conformance)", scheme, maxStaleFrac),
		Target:      1 - maxStaleFrac,
		Eval: func(db *tsdb.DB, windowNs int64) (bad, total uint64) {
			// The stale counter is keyed scheme/site only; completions
			// carry the op label too.
			bad = db.WindowTotal(obs.MetricStaleReads, windowNs, obs.L("scheme", scheme))
			total = db.WindowTotal(obs.MetricOpCompletions, windowNs,
				obs.L("scheme", scheme), obs.L("op", protocol.OpRead))
			return bad, total
		},
	})
}
