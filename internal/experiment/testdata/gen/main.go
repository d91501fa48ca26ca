// Command gen regenerates the golden analytic tables that
// TestGoldenExperiments pins. Run it from the repository root after an
// intended change to the numbers a sweep produces:
//
//	go run ./internal/experiment/testdata/gen
//
// A refactor of the analytic client protocol must not need it: the
// tables it writes are the reference the refactored code is held to.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiment"
)

func main() {
	dir := filepath.Join("internal", "experiment", "testdata", "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	tables, err := experiment.GoldenTables()
	if err != nil {
		fatal(err)
	}
	for _, tb := range tables {
		path := filepath.Join(dir, tb.Name+".txt")
		if err := os.WriteFile(path, []byte(tb.Text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(tb.Text))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gen:", err)
	os.Exit(1)
}
