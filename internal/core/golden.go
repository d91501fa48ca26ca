package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/alphatree"
)

// GoldenSolves renders Solve's output on seeded weight-balanced catalog
// trees (alphatree.KAry, so the pins do not depend on the optimal-tree
// build) at 10², 10³ and 3·10³ keys, fanout 2 and 4, k ∈ {1, 2, 4}, with
// Polish off and on. Each line carries the exact cost and a SHA-256 of
// Alloc.Levels(). TestGoldenSolves compares the text against
// testdata/golden_solves.txt, which
// `go run ./internal/core/testdata/gen` regenerates; a speedup of the
// heuristics or of the allocation type must leave it unchanged.
func GoldenSolves() (string, error) {
	var b strings.Builder
	for _, n := range []int{100, 1000, 3000} {
		for _, fanout := range []int{2, 4} {
			items := goldenItems(int64(n*10+fanout), n)
			t, err := alphatree.KAry(items, fanout)
			if err != nil {
				return "", err
			}
			for _, k := range []int{1, 2, 4} {
				for _, polish := range []bool{false, true} {
					sol, err := Solve(t, Config{Channels: k, Polish: polish, FallbackOnLimit: true})
					if err != nil {
						return "", fmt.Errorf("core: golden n=%d fanout=%d k=%d polish=%v: %w",
							n, fanout, k, polish, err)
					}
					h := sha256.New()
					for _, level := range sol.Alloc.Levels() {
						for _, id := range level {
							fmt.Fprintf(h, "%d,", id)
						}
						h.Write([]byte{';'})
					}
					fmt.Fprintf(&b, "n=%d fanout=%d k=%d polish=%v used=%v slots=%d cost=%s levels=%x\n",
						n, fanout, k, polish, sol.Used, sol.Alloc.NumSlots(),
						strconv.FormatFloat(sol.Cost, 'g', -1, 64), h.Sum(nil))
				}
			}
		}
	}
	return b.String(), nil
}

// goldenItems returns n keyed items with skewed, tie-heavy integer
// weights drawn from seed.
func goldenItems(seed int64, n int) []alphatree.Item {
	r := rand.New(rand.NewSource(seed))
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  fmt.Sprintf("k%d", i+1),
			Key:    int64(i + 1),
			Weight: math.Floor(r.ExpFloat64()*8) + 1,
		}
	}
	return items
}
