package main

import "testing"

func TestRunSingleFigure(t *testing.T) {
	// Tiny scale; prints to stdout, which `go test` captures.
	if err := run("9", 0.0005, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigurePlots(t *testing.T) {
	if err := run("4", 0.0005, 1, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6AliasesFig5(t *testing.T) {
	if err := run("6", 0.0002, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, id := range []string{"42", "scaling"} {
		if err := run(id, 1, 1, false); err == nil {
			t.Fatalf("unknown figure %q accepted", id)
		}
	}
}

// TestRunFiguresWithoutSpecs runs the two figures whose Render computes
// their data; -plot prints their tables as they are.
func TestRunFiguresWithoutSpecs(t *testing.T) {
	for _, id := range []string{"tenants", "churn"} {
		if err := run(id, 0.0005, 1, false); err != nil {
			t.Fatalf("-fig %s: %v", id, err)
		}
	}
	if err := run("tenants", 0.0005, 1, true); err != nil {
		t.Fatalf("-fig tenants -plot: %v", err)
	}
}
