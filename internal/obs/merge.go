package obs

import "sort"

// Snapshot merging for the cross-site aggregation plane (DESIGN.md
// §16): the cluster metrics view is the element-wise merge of every
// site's registry snapshot — counters sum, gauges sum, histograms
// merge bucket-wise via mergeHist. Series identity is the canonical
// name{labels} key, so two sites exporting the same series (the usual
// case for site-labelled series is that they do not collide; unlabelled
// series from distinct processes do) fold into one point. The merge of
// a partition of one snapshot's series reconstructs that snapshot
// exactly, which is the invariant the aggregation tests pin.

// MergeSnapshots merges any number of registry snapshots into one
// cluster view. Counters and gauges with the same series identity sum;
// histograms merge bucket-wise (counts and sums add, quantiles are
// re-estimated from the merged buckets). Output ordering follows the
// canonical series key, matching Registry.Snapshot, so the result is
// deterministic regardless of input order.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	counters := make(map[string]CounterPoint)
	gauges := make(map[string]GaugePoint)
	hists := make(map[string]HistogramPoint)
	for _, s := range snaps {
		for _, p := range s.Counters {
			k := KeyOf(p.Key, p.Name, p.Labels)
			acc := counters[k]
			acc.Key, acc.Name, acc.Labels = k, p.Name, p.Labels
			acc.Value += p.Value
			counters[k] = acc
		}
		for _, p := range s.Gauges {
			k := KeyOf(p.Key, p.Name, p.Labels)
			acc := gauges[k]
			acc.Key, acc.Name, acc.Labels = k, p.Name, p.Labels
			acc.Value += p.Value
			gauges[k] = acc
		}
		for _, p := range s.Histograms {
			k := KeyOf(p.Key, p.Name, p.Labels)
			acc, ok := hists[k]
			if !ok {
				p.Key = k
				hists[k] = p
				continue
			}
			m := mergeHist(acc, p)
			m.Key, m.Labels = k, p.Labels
			hists[k] = m
		}
	}
	var out Snapshot
	for _, k := range sortedKeys(counters) {
		out.Counters = append(out.Counters, counters[k])
	}
	for _, k := range sortedKeys(gauges) {
		out.Gauges = append(out.Gauges, gauges[k])
	}
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		// Quantiles describe the merged distribution, not any input's:
		// re-estimate from the merged buckets (empty series carry none,
		// matching Registry.Snapshot).
		h.Quantiles = nil
		if h.Count > 0 {
			for _, q := range snapshotQuantiles {
				h.Quantiles = append(h.Quantiles, QuantileValue{Q: q, ValueNs: h.Quantile(q)})
			}
		}
		out.Histograms = append(out.Histograms, h)
	}
	return out
}

// KeyOf returns a snapshot point's canonical series key: the one it
// carries, or — for a point that was decoded or built by hand — the
// key rebuilt from its label map.
func KeyOf(key, name string, labels map[string]string) string {
	if key != "" {
		return key
	}
	return pointKey(name, labels)
}

// pointKey reconstructs the canonical series key from a snapshot
// point's label map.
func pointKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, 0, len(labels))
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ls = append(ls, L(k, labels[k]))
	}
	return seriesKey(name, ls)
}
