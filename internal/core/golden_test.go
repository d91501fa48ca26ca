package core

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenSolves pins Solve's cost and allocation on seeded catalog
// trees against the checked-in file produced by
// `go run ./internal/core/testdata/gen`.
func TestGoldenSolves(t *testing.T) {
	got, err := GoldenSolves()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_solves.txt"))
	if err != nil {
		t.Fatalf("golden file missing: %v", err)
	}
	if got != string(want) {
		t.Errorf("Solve output drifted from its golden file:\n got:\n%s\nwant:\n%s", got, want)
	}
}
