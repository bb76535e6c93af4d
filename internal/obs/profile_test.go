package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/simnet"
)

// TestCriticalPathCoverage is the acceptance check for critical-path
// attribution (DESIGN.md §15): drive a real cluster through a mixed
// workload — failure-free traffic, a degraded phase, restart and
// recovery — and require that for every scheme/op aggregate the phase
// partition (lock_wait + fanout + rpc + local) sums to within 1% of
// the measured end-to-end latency. The observer runs on the wall clock
// — a coverage ratio needs time to pass inside an op — and with
// sequential controllers the local phase is the residual, so the
// partition is exact by construction and the 1% band is pure headroom,
// not slack being spent.
func TestCriticalPathCoverage(t *testing.T) {
	for _, kind := range []core.SchemeKind{core.Voting, core.AvailableCopy, core.NaiveAvailableCopy} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			o, _ := runProfileWorkload(t, kind)
			p := o.CriticalPath()
			if len(p.Ops) == 0 {
				t.Fatal("profile is empty after a full workload")
			}
			sawWrite, sawRead := false, false
			for _, op := range p.Ops {
				switch op.Op {
				case protocol.OpWrite:
					sawWrite = true
				case protocol.OpRead:
					sawRead = true
				}
				if op.Count == 0 || op.TotalNs == 0 {
					t.Errorf("%s/%s: empty aggregate in profile", op.Scheme, op.Op)
					continue
				}
				if op.Coverage < 0.99 || op.Coverage > 1.01 {
					t.Errorf("%s/%s: coverage = %.4f (partition %d ns vs total %d ns), want within 1%% of 1.0",
						op.Scheme, op.Op, op.Coverage, op.PartitionNs, op.TotalNs)
				}
				var partition uint64
				for _, ph := range op.Phases {
					if !ph.Sub {
						partition += ph.TotalNs
					}
				}
				if partition != op.PartitionNs {
					t.Errorf("%s/%s: phase rows sum to %d but PartitionNs = %d", op.Scheme, op.Op, partition, op.PartitionNs)
				}
			}
			if !sawWrite || !sawRead {
				t.Errorf("profile covers write=%v read=%v, want both", sawWrite, sawRead)
			}
		})
	}
}

// TestProfileEndpoint drives one cluster and reads the same profile
// back through the HTTP surface: JSON by default, the text flamegraph
// with ?format=flame.
func TestProfileEndpoint(t *testing.T) {
	o, _ := runProfileWorkload(t, core.Voting)
	mux := obs.NewDebugMux(o)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /profile = %d, want 200", rec.Code)
	}
	var p obs.Profile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
	if len(p.Ops) == 0 {
		t.Fatal("served profile has no op aggregates")
	}
	for _, op := range p.Ops {
		if op.Coverage < 0.99 || op.Coverage > 1.01 {
			t.Errorf("served %s/%s coverage = %.4f, want within 1%% of 1.0", op.Scheme, op.Op, op.Coverage)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/profile?format=flame", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /profile?format=flame = %d, want 200", rec.Code)
	}
	flame := rec.Body.String()
	if !strings.Contains(flame, "critical path — phase attribution") {
		t.Errorf("flame output lacks the header:\n%s", flame)
	}
	if !strings.Contains(flame, "voting/write") {
		t.Errorf("flame output lacks the voting/write block:\n%s", flame)
	}
}

// TestTreePhasesMatchRegistry cross-checks the two attribution paths:
// summing the EvPhase spans of every stitched trace must reproduce the
// registry's per-phase totals for the partition phases.
func TestTreePhasesMatchRegistry(t *testing.T) {
	o, _ := runProfileWorkload(t, core.AvailableCopy)

	fromTrees := make(map[string]map[string]int64)
	for _, tree := range o.TraceTrees() {
		treePhases(fromTrees, tree)
	}

	p := o.CriticalPath()
	for _, op := range p.Ops {
		key := op.Scheme + "/" + op.Op
		for _, ph := range op.Phases {
			if ph.TotalNs == 0 {
				continue
			}
			if got := uint64(fromTrees[key][ph.Phase]); got != ph.TotalNs {
				t.Errorf("%s phase %s: trace spans sum to %d ns, registry says %d ns", key, ph.Phase, got, ph.TotalNs)
			}
		}
	}
}

// runProfileWorkload drives one scheme through writes, reads, a
// degraded phase, and recovery, with tracing on, and returns the
// observer and cluster for inspection.
func runProfileWorkload(t *testing.T, kind core.SchemeKind) (*obs.Observer, *core.Cluster) {
	t.Helper()
	const n = 5
	o := obs.New(obs.WithTracing(1 << 14))
	cl, err := core.NewCluster(core.ClusterConfig{
		Sites:    n,
		Geometry: block.Geometry{BlockSize: 32, NumBlocks: 8},
		Scheme:   kind,
		Mode:     simnet.Multicast,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	write := func(site protocol.SiteID, idx block.Index, s string) {
		t.Helper()
		ctrl, err := cl.Controller(site)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, cl.Geometry().BlockSize)
		copy(data, s)
		if err := ctrl.Write(ctx, idx, data); err != nil {
			t.Fatalf("write at %v: %v", site, err)
		}
	}
	read := func(site protocol.SiteID, idx block.Index) {
		t.Helper()
		ctrl, err := cl.Controller(site)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Read(ctx, idx); err != nil {
			t.Fatalf("read at %v: %v", site, err)
		}
	}

	for i := 0; i < 8; i++ {
		write(protocol.SiteID(i%n), block.Index(i%8), fmt.Sprintf("v1-%d", i))
	}
	for i := 0; i < 8; i++ {
		read(protocol.SiteID((i+1)%n), block.Index(i%8))
	}
	if err := cl.Fail(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		write(protocol.SiteID(i%4), block.Index(i%8), fmt.Sprintf("v2-%d", i))
	}
	read(0, 0)
	if err := cl.Restart(ctx, 4); err != nil {
		t.Fatal(err)
	}
	read(4, 0)
	read(1, 2)
	return o, cl
}

// treePhases adds the phase durations of every op span in a stitched
// trace tree (root and orphans included) into sums, per scheme/op: an
// op span's EvPhase children carry "phase=<name> dur_ns=<n>".
func treePhases(sums map[string]map[string]int64, tree *obs.TraceTree) {
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		for _, c := range sp.Children {
			var name string
			var ns int64
			if _, err := fmt.Sscanf(c.Detail, "phase=%s dur_ns=%d", &name, &ns); sp.Kind == "op" && c.Kind == obs.EvPhase && err == nil {
				key := sp.Scheme + "/" + sp.Op
				if sums[key] == nil {
					sums[key] = make(map[string]int64)
				}
				sums[key][name] += ns
			}
			walk(c)
		}
	}
	if tree.Root != nil {
		walk(tree.Root)
	}
	for _, o := range tree.Orphans {
		walk(o)
	}
}
