package flight

import (
	"fmt"
	"sort"

	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// Probe wraps an arbitrary closure as a source; the wiring layer uses
// it for signals the obs registry does not carry (failure-detector
// state, scheduler depth, ...).
func Probe(name string, collect func() any) Source {
	return Source{Name: name, Collect: collect}
}

// seriesKey renders one snapshot point identity as name{k=v,...} with
// sorted label keys, so delta lines are stable run to run.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := name + "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + labels[k]
	}
	return s + "}"
}

// MetricsDelta probes the observer's registry and reports, as sorted
// lines, every series whose value changed since the previous frame:
// "name{labels} total (+delta)". Histograms contribute their count and
// sum. The source is stateful — one instance belongs to one recorder.
func MetricsDelta(o *obs.Observer) Source {
	prev := make(map[string]int64)
	return Source{Name: "metrics_delta", Collect: func() any {
		snap := o.Snapshot()
		cur := make(map[string]int64, len(prev))
		for _, p := range snap.Counters {
			cur[seriesKey(p.Name, p.Labels)] = int64(p.Value)
		}
		for _, p := range snap.Gauges {
			cur[seriesKey(p.Name, p.Labels)] = p.Value
		}
		for _, p := range snap.Histograms {
			k := seriesKey(p.Name, p.Labels)
			cur[k+"#count"] = int64(p.Count)
			cur[k+"#sum_ns"] = int64(p.Sum)
		}
		var lines []string
		for k, v := range cur {
			if pv, ok := prev[k]; !ok || pv != v {
				lines = append(lines, fmt.Sprintf("%s %d (%+d)", k, v, v-prev[k]))
			}
		}
		prev = cur
		sort.Strings(lines)
		return lines
	}}
}

// TraceTail probes the last n retained trace events, rendered as
// compact strings. Returns nil when tracing is off. The ring holds
// concurrent emitters' events in scheduler order, so the tail is taken
// after a stable sort by (At, Site) — the merge of per-site logs that
// obs.CollectTraces implies for separate processes, which keeps each
// site's own order — and, within one site and instant, each run of
// consecutive per-peer lane events (a repairer's donor workers) is put
// in peer order. On a clock.Manual the rendering is then replayable.
func TraceTail(o *obs.Observer, n int) Source {
	return Source{Name: "trace_tail", Collect: func() any {
		t := o.Tracer()
		if t == nil {
			return nil
		}
		evs := t.Events()
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].At != evs[j].At {
				return evs[i].At < evs[j].At
			}
			return evs[i].Site < evs[j].Site
		})
		for i := 0; i < len(evs); i++ {
			j := i
			for j < len(evs) && evs[j].Lane != 0 && evs[j].At == evs[i].At && evs[j].Site == evs[i].Site {
				j++
			}
			if run := evs[i:j]; len(run) > 1 {
				sort.SliceStable(run, func(a, b int) bool { return run[a].Lane < run[b].Lane })
				i = j - 1
			}
		}
		if len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		lines := make([]string, len(evs))
		for i, e := range evs {
			lines[i] = fmt.Sprintf("at=%d site=%d kind=%s op=%s block=%d %s",
				e.At, e.Site, e.Kind, e.Op, e.Block, e.Detail)
		}
		return lines
	}}
}

// Suspects probes a failure detector's suspect set (e.g. the rpcnet
// client's SuspectSet), rendered via SiteSet's sorted String form.
func Suspects(fn func() protocol.SiteSet) Source {
	return Source{Name: "suspects", Collect: func() any {
		return fn().String()
	}}
}

// gaugeLines renders every gauge series of one family as sorted
// "labels value" lines; the snapshot is already series-ordered.
func gaugeLines(o *obs.Observer, family string) []string {
	var lines []string
	for _, p := range o.Snapshot().Gauges {
		if p.Name == family {
			lines = append(lines, fmt.Sprintf("%s %d", seriesKey(p.Name, p.Labels), p.Value))
		}
	}
	return lines
}

// RepairLag probes each site's repair backlog gauge — how many blocks
// it still must install to reach cluster freshness.
func RepairLag(o *obs.Observer) Source {
	return Source{Name: "repair_lag", Collect: func() any {
		return gaugeLines(o, obs.MetricRepairLag)
	}}
}

// Occupancy probes the group-commit batch occupancy gauge per site.
func Occupancy(o *obs.Observer) Source {
	return Source{Name: "batch_occupancy", Collect: func() any {
		return gaugeLines(o, obs.MetricGroupCommitOccupancy)
	}}
}
