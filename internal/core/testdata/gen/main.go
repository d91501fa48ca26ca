// Command gen regenerates the golden solver outputs that
// TestGoldenSolves pins. Run it from the repository root after an
// intended change to the allocations Solve produces:
//
//	go run ./internal/core/testdata/gen
//
// A speedup of the heuristics or of the allocation type must not need
// it: the file it writes is the reference the faster code is held to.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

func main() {
	text, err := core.GoldenSolves()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
	path := filepath.Join("internal", "core", "testdata", "golden_solves.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(text))
}
