package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenExperiments pins the rendered A8–A12 tables at small
// configurations against the checked-in files produced by
// `go run ./internal/experiment/testdata/gen`. Any change to the analytic
// client protocol that moves a number shows up here as a table diff.
func TestGoldenExperiments(t *testing.T) {
	tables, err := GoldenTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d golden tables, want 5", len(tables))
	}
	for _, tb := range tables {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tb.Name+".txt"))
		if err != nil {
			t.Fatalf("%s: golden file missing: %v", tb.Name, err)
		}
		if tb.Text != string(want) {
			t.Errorf("%s table drifted from its golden file:\n got:\n%s\nwant:\n%s", tb.Name, tb.Text, want)
		}
	}
}
