//go:build !race

package obs

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestSeriesKeyAllocBudget: a series key is one allocation, the string
// itself, and its bytes are the `name{k="v",...}` rendering with the
// labels sorted by key and each value quoted as %q quotes it. The race
// detector allocates, hence the build tag.
func TestSeriesKeyAllocBudget(t *testing.T) {
	for _, labels := range [][]Label{
		{L("site", "site0"), L("op", "write"), L("scheme", "voting"), L("phase", "straggler")},
		{L("b", "tab\there"), L("a", `quote " and \ back`), L("c", "é\x00 ")},
		{L("k", strings.Repeat("v", 300))},
	} {
		sorted := append([]Label(nil), labels...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		parts := make([]string, len(sorted))
		for i, l := range sorted {
			parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
		}
		want := "m{" + strings.Join(parts, ",") + "}"
		if got := seriesKey("m", labels); got != want {
			t.Errorf("seriesKey = %s, want %s", got, want)
		}
	}
	labels := []Label{L("transport", "rpc"), L("method", "call"), L("class", "transient")}
	if got := testing.AllocsPerRun(100, func() { seriesKey(MetricTransportErrors, labels) }); got != 1 {
		t.Errorf("seriesKey: %v allocations, budget is exactly 1", got)
	}
}
