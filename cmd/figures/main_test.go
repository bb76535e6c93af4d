package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden")

func TestRunEveryFigure(t *testing.T) {
	for _, fig := range []string{"9", "10", "11", "12", "theorem", "costs", "witness", "equal-availability", "mttf"} {
		if err := run(io.Discard, fig, false, false, 40, 10, 1); err != nil {
			t.Fatalf("run(%q): %v", fig, err)
		}
	}
}

func TestRunCSV(t *testing.T) {
	if err := run(io.Discard, "11", true, false, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunAll(t *testing.T) {
	if err := run(io.Discard, "all", false, false, 40, 8, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllGolden pins `figures -fig all` at its default size byte for
// byte: every figure, table and check the command prints.
func TestRunAllGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", false, false, 72, 20, 1); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/all.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-fig all differs from %s (rerun with -update after reading the diff):\n--- got\n%s--- want\n%s", path, buf.Bytes(), want)
	}
}

func TestRunWithSimulationOverlay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation overlay")
	}
	if err := run(io.Discard, "9", false, true, 40, 8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, "nope", false, false, 40, 10, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
