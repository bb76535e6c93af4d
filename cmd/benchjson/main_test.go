package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseLine(t *testing.T) {
	line := "BenchmarkParallelWrite/voting/n5/lat100us-1 \t 100\t  9000000 ns/op\t  111.7 ops/sec"
	r, ok := parseLine(line)
	if !ok {
		t.Fatal("line not recognised")
	}
	if r.Name != "BenchmarkParallelWrite/voting/n5/lat100us" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Benchmark != "BenchmarkParallelWrite" || r.Scheme != "voting" || r.Sites != 5 || r.Latency != "lat100us" {
		t.Fatalf("decomposed = %+v", r)
	}
	if r.Iterations != 100 || r.NsPerOp != 9000000 || r.OpsPerSec != 111.7 {
		t.Fatalf("metrics = %+v", r)
	}
}

func TestParseLineRPCNameWithoutLatency(t *testing.T) {
	r, ok := parseLine("BenchmarkParallelWriteRPC/naive/n3-1  5000  42187 ns/op  23703 ops/sec")
	if !ok {
		t.Fatal("line not recognised")
	}
	if r.Scheme != "naive" || r.Sites != 3 || r.Latency != "" {
		t.Fatalf("decomposed = %+v", r)
	}
}

func TestParseLineBenchmem(t *testing.T) {
	r, ok := parseLine("BenchmarkParallelWriteRPC/voting/n5-2 \t 5824\t 239719 ns/op\t 4171 ops/sec\t 50638 B/op\t 675 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if r.NsPerOp != 239719 || r.OpsPerSec != 4171 {
		t.Fatalf("timing columns = %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 50638 || r.AllocsPerOp == nil || *r.AllocsPerOp != 675 {
		t.Fatalf("benchmem columns = %v, %v; want 50638, 675", r.BytesPerOp, r.AllocsPerOp)
	}
	// A measured zero is recorded as zero, and survives the JSON.
	r, ok = parseLine("BenchmarkCodecPut/decode-2  16350324  64.37 ns/op  0 B/op  0 allocs/op")
	if !ok || r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Fatalf("zero allocs/op = %+v (ok=%v)", r, ok)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"allocs_per_op":0`) || !strings.Contains(string(raw), `"bytes_per_op":0`) {
		t.Fatalf("JSON drops a measured zero: %s", raw)
	}
	// Without -benchmem the columns are absent, not zero.
	r, _ = parseLine("BenchmarkParallelRead/voting/n3/lat0-1   416738   812.6 ns/op")
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("run without -benchmem reports memory columns: %+v", r)
	}
	raw, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "allocs_per_op") {
		t.Fatalf("JSON invents a memory column: %s", raw)
	}
}

func TestParseSkipsNoise(t *testing.T) {
	in := `goos: linux
goarch: amd64
BenchmarkParallelRead/voting/n3/lat0-1   416738   812.6 ns/op   1230630 ops/sec
PASS
ok  	relidev	1.0s
`
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Scheme != "voting" {
		t.Fatalf("results = %+v", results)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("accepted input without benchmark lines")
	}
}

func TestBaselineDiff(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	base := report{Benchmarks: []result{
		{Name: "BenchmarkParallelWrite/voting/n5/lat100us", NsPerOp: 2250000, OpsPerSec: 443},
		{Name: "BenchmarkParallelWrite/ac/n5/lat100us", NsPerOp: 500000, OpsPerSec: 2000},
		{Name: "BenchmarkGone/naive/n3", NsPerOp: 10},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadReport(basePath)
	if err != nil {
		t.Fatal(err)
	}
	current := []result{
		{Name: "BenchmarkParallelWrite/voting/n5/lat100us", NsPerOp: 150000, OpsPerSec: 6645},
		{Name: "BenchmarkParallelWrite/ac/n5/lat100us", NsPerOp: 1000000, OpsPerSec: 1000},
		{Name: "BenchmarkWritePath/voting/n5/lat100us", NsPerOp: 100, OpsPerSec: 9999},
	}
	var sb strings.Builder
	diff(&sb, loaded.Benchmarks, current)
	out := sb.String()
	if !strings.Contains(out, "15.00x") {
		t.Fatalf("voting speedup 6645/443 = 15.00x missing:\n%s", out)
	}
	if !strings.Contains(out, "0.50x") {
		t.Fatalf("ac slowdown 1000/2000 = 0.50x missing:\n%s", out)
	}
	if !strings.Contains(out, "new") {
		t.Fatalf("benchmark absent from baseline not marked new:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkGone") {
		t.Fatalf("baseline-only benchmark should not be listed:\n%s", out)
	}

	// ns/op fallback when a run lacks ops/sec.
	sb.Reset()
	diff(&sb, []result{{Name: "B/x/n1", NsPerOp: 200}}, []result{{Name: "B/x/n1", NsPerOp: 100}})
	if !strings.Contains(sb.String(), "2.00x") {
		t.Fatalf("ns/op ratio 200/100 = 2.00x missing:\n%s", sb.String())
	}

	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestAppendHistoryCreatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.json")
	run1 := []result{{Name: "BenchmarkParallelWrite/voting/n5/lat0", Benchmark: "BenchmarkParallelWrite",
		Scheme: "voting", Sites: 5, Iterations: 100, NsPerOp: 9000, OpsPerSec: 111}}
	run2 := []result{{Name: "BenchmarkParallelWrite/voting/n5/lat0", Benchmark: "BenchmarkParallelWrite",
		Scheme: "voting", Sites: 5, Iterations: 200, NsPerOp: 4500, OpsPerSec: 222}}

	t1 := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	if err := appendHistory(path, "rev1", t1, run1); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, "rev2", t1.Add(time.Hour), run2); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist []historyEntry
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("history not a JSON array of entries: %v\n%s", err, data)
	}
	if len(hist) != 2 {
		t.Fatalf("history holds %d entries, want 2 after two appends", len(hist))
	}
	if hist[0].Label != "rev1" || hist[0].At != "2026-08-09T12:00:00Z" {
		t.Fatalf("first entry = %+v", hist[0])
	}
	if hist[1].Label != "rev2" || len(hist[1].Benchmarks) != 1 || hist[1].Benchmarks[0].OpsPerSec != 222 {
		t.Fatalf("second entry = %+v", hist[1])
	}
	// The earlier run survives the second append untouched.
	if hist[0].Benchmarks[0].OpsPerSec != 111 {
		t.Fatalf("first run mutated by append: %+v", hist[0])
	}
}

func TestAppendHistoryRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := appendHistory(path, "", time.Unix(0, 0).UTC(), []result{{Name: "B/x/n1"}})
	if err == nil {
		t.Fatal("appending to a non-array file should fail, not clobber it")
	}
	// The corrupt file is left as-is for the operator to inspect.
	data, _ := os.ReadFile(path)
	if string(data) != `{"benchmarks":[]}` {
		t.Fatalf("corrupt history rewritten: %s", data)
	}
}

// TestProcsKeptAndMatched: a -cpu 1,2 run gives two rows of one name,
// told apart by procs (go test leaves the suffix off at GOMAXPROCS 1),
// and -baseline compares each with its own row of the prior run.
func TestProcsKeptAndMatched(t *testing.T) {
	in := `BenchmarkOpenSeg     	      3	   8000000 ns/op
BenchmarkOpenSeg-2   	      3	   5000000 ns/op
`
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "BenchmarkOpenSeg" || results[1].Name != "BenchmarkOpenSeg" ||
		results[0].Procs != 0 || results[1].Procs != 2 {
		t.Fatalf("results = %+v, want one name at procs 0 and 2", results)
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(raw), `"procs"`) != 1 || !strings.Contains(string(raw), `"procs":2`) {
		t.Fatalf("JSON = %s, want procs on the suffixed row only", raw)
	}
	base := []result{
		{Name: "BenchmarkOpenSeg", Procs: 2, NsPerOp: 10000000},
		{Name: "BenchmarkOpenSeg", NsPerOp: 4000000},
	}
	var sb strings.Builder
	diff(&sb, base, results)
	out := sb.String()
	if !strings.Contains(out, "0.50x") || !strings.Contains(out, "2.00x") {
		t.Fatalf("rows not matched on procs: want 4/8 = 0.50x and 10/5 = 2.00x:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkOpenSeg-2") {
		t.Fatalf("parallel row not labelled with its procs:\n%s", out)
	}
}
