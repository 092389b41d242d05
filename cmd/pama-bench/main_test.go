package main

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	if err := run(io.Discard, "9", 0.0005, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigurePlots(t *testing.T) {
	if err := run(io.Discard, "4", 0.0005, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6AliasesFig5(t *testing.T) {
	if err := run(io.Discard, "6", 0.0002, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, id := range []string{"42", "scaling"} {
		if err := run(io.Discard, id, 1, 1, false); err == nil {
			t.Fatalf("unknown figure %q accepted", id)
		}
	}
}

// TestRunFiguresWithoutSpecs runs the two figures whose Render computes
// their data; -plot prints their tables as they are.
func TestRunFiguresWithoutSpecs(t *testing.T) {
	for _, id := range []string{"tenants", "churn"} {
		if err := run(io.Discard, id, 0.0005, 1, false); err != nil {
			t.Fatalf("-fig %s: %v", id, err)
		}
	}
	if err := run(io.Discard, "tenants", 0.0005, 1, true); err != nil {
		t.Fatalf("-fig tenants -plot: %v", err)
	}
}

// TestWorkersOneMatchesDefault: -workers bounds the figures without Specs too,
// and one worker at a time prints what the default prints, wall-time lines
// aside.
func TestWorkersOneMatchesDefault(t *testing.T) {
	render := func(id string, workers int) string {
		var sb strings.Builder
		if err := run(&sb, id, 0.0005, workers, false); err != nil {
			t.Fatalf("-fig %s -workers %d: %v", id, workers, err)
		}
		var out []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if !strings.HasPrefix(line, "#") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	for _, id := range []string{"tenants", "churn", "9"} {
		one := render(id, 1)
		for _, workers := range []int{runtime.GOMAXPROCS(0), 3} {
			if got := render(id, workers); got != one {
				t.Errorf("-fig %s prints another figure with -workers %d than with -workers 1", id, workers)
			}
		}
	}
}
