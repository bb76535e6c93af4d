package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"relidev"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestManifestMatchesCode(t *testing.T) {
	man := readManifest(t)
	var workloads []workloadDecl
	for _, sp := range gatedSpecs() {
		workloads = append(workloads, workloadDecl{sp.name, sp.why})
	}
	if !reflect.DeepEqual(man.Workloads, workloads) {
		t.Errorf("workloads: manifest has %v, code has %v", man.Workloads, workloads)
	}
	var bounded []def
	for _, b := range man.EndToEnd {
		bounded = append(bounded, b.def)
		if b.Bound < minBound || b.Bound > maxBound {
			t.Errorf("%s: bound %v outside [%v, %v]", b.Name, b.Bound, minBound, maxBound)
		}
	}
	if !reflect.DeepEqual(bounded, endToEnd) {
		t.Errorf("end_to_end: manifest has %v, code has %v", bounded, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs between manifest and code")
	}
}

// Every workload, both passes and the ladder at 1 % scale: each named
// metric comes out once, with its unit and a finite value, and nothing
// fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	man := readManifest(t)
	dir := t.TempDir()
	for _, sp := range specs {
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(sp, options{seed: 1, seconds: 0.2, trace: trace, scale: 0.01, dir: dir})
			if err != nil {
				t.Fatalf("%s trace %d: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			for _, b := range man.EndToEnd {
				if trace == 0 {
					want[b.Name] = b.Unit
				}
			}
			for _, d := range man.PerLayer {
				if trace == 1 {
					want[d.Name] = d.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, manifest names %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s missing", sp.name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace %d: %s has unit %q, manifest says %q", sp.name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s = %v", sp.name, trace, name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, name, got.Value)
				}
			}
		}
		if _, err := os.Stat(dir + "/trace-" + sp.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", sp.name, err)
		}
	}
}

// corrupting hands back one read in ten with a byte of its stamp
// flipped.
type corrupting struct {
	relidev.Device
	reads int
}

func (c *corrupting) ReadBlock(ctx context.Context, idx relidev.Index) ([]byte, error) {
	data, err := c.Device.ReadBlock(ctx, idx)
	if c.reads++; err == nil && c.reads%10 == 0 {
		data[9] ^= 1
	}
	return data, err
}

// A read that does not return the most recent write is counted as a
// failed op.
func TestCorruptReadIsCaught(t *testing.T) {
	ctx := context.Background()
	e := env{seed: 1, scale: 0.01, workDir: t.TempDir(), clients: 2}
	in, err := setUp(ctx, specs[0], e, openPublic)
	if err != nil {
		t.Fatal(err)
	}
	defer in.cl.close()
	if _, failed, _ := in.counts(); failed != 0 {
		t.Fatalf("%d ops failed before anything was corrupted", failed)
	}
	bad := &corrupting{Device: in.cs[0].dev}
	in.cs[0].dev = bad
	in.segment(ctx, e)
	_, failed, first := in.counts()
	if want := bad.reads / 10; failed != want {
		t.Fatalf("%d of %d reads were corrupted, %d ops counted as failed (first: %v)", want, bad.reads, failed, first)
	}
}
