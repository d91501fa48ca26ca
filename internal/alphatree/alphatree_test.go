package alphatree

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tree"
)

func mkItems(weights ...float64) []Item {
	items := make([]Item, len(weights))
	for i, w := range weights {
		items[i] = Item{Label: fmt.Sprintf("K%d", i+1), Key: int64(i + 1), Weight: w}
	}
	return items
}

// inorderLeaves returns the data labels in left-to-right order.
func inorderLeaves(t *tree.Tree) []string {
	var out []string
	var walk func(id tree.ID)
	walk = func(id tree.ID) {
		if t.IsData(id) {
			out = append(out, t.Label(id))
			return
		}
		for _, c := range t.Children(id) {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHuTuckerPreservesOrder(t *testing.T) {
	items := mkItems(5, 40, 2, 30, 1, 25, 7)
	tr, err := HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(items))
	for i := range items {
		want[i] = items[i].Label
	}
	if got := inorderLeaves(tr); !sameOrder(got, want) {
		t.Fatalf("leaf order = %v, want %v", got, want)
	}
	if !tr.Keyed() {
		t.Fatal("Hu-Tucker tree should be keyed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHuTuckerKnownInstance(t *testing.T) {
	// Classic example: equal weights give a balanced tree.
	tr, err := HuTucker(mkItems(1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := WeightedPathLength(tr); got != 8 { // 4 leaves at depth 2
		t.Fatalf("WPL = %g, want 8", got)
	}
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth())
	}
}

func TestHuTuckerSingleItem(t *testing.T) {
	tr, err := HuTucker(mkItems(7))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 || tr.NumData() != 1 {
		t.Fatalf("single-item tree has %d nodes", tr.NumNodes())
	}
	if got := WeightedPathLength(tr); got != 0 {
		t.Fatalf("WPL = %g, want 0", got)
	}
}

func TestHuffmanOptimalButUnkeyed(t *testing.T) {
	items := mkItems(1, 1, 10, 1)
	tr, err := Huffman(items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Keyed() {
		t.Fatal("Huffman tree must be unkeyed (it breaks key order)")
	}
	// The weight-10 leaf must sit at depth 1.
	id := tr.FindLabel("K3")
	if got := tr.Level(id); got != 2 {
		t.Fatalf("heavy leaf at level %d, want 2", got)
	}
	// Huffman never exceeds Hu-Tucker (alphabetic adds a constraint).
	ht, err := HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	if WeightedPathLength(tr) > WeightedPathLength(ht)+1e-9 {
		t.Fatalf("Huffman WPL %g > Hu-Tucker WPL %g",
			WeightedPathLength(tr), WeightedPathLength(ht))
	}
}

func TestOptimalKAryFanoutValidation(t *testing.T) {
	if _, err := OptimalKAry(mkItems(1, 2), 1); err == nil {
		t.Fatal("want error for fanout 1")
	}
	if _, err := KAry(mkItems(1, 2), 1); err == nil {
		t.Fatal("want error for fanout 1")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := HuTucker(nil); err == nil {
		t.Fatal("want error for empty items")
	}
	bad := mkItems(1, 2)
	bad[1].Key = bad[0].Key // duplicate key
	if _, err := HuTucker(bad); err == nil {
		t.Fatal("want error for non-ascending keys")
	}
	neg := mkItems(1)
	neg[0].Weight = -1
	if _, err := Huffman(neg); err == nil {
		t.Fatal("want error for negative weight")
	}
}

func TestOptimalKAryWiderFanoutNeverWorse(t *testing.T) {
	items := mkItems(3, 1, 4, 1, 5, 9, 2, 6)
	prev := math.Inf(1)
	for k := 2; k <= 5; k++ {
		tr, err := OptimalKAry(items, k)
		if err != nil {
			t.Fatal(err)
		}
		wpl := WeightedPathLength(tr)
		if wpl > prev+1e-9 {
			t.Fatalf("fanout %d WPL %g worse than fanout %d", k, wpl, k-1)
		}
		prev = wpl
	}
}

func TestKAryFanoutRespected(t *testing.T) {
	items := mkItems(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
	for k := 2; k <= 4; k++ {
		tr, err := KAry(items, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range tr.Preorder() {
			if len(tr.Children(id)) > k {
				t.Fatalf("fanout %d violated: node %s has %d children",
					k, tr.Label(id), len(tr.Children(id)))
			}
		}
		if got := inorderLeaves(tr); len(got) != len(items) {
			t.Fatalf("lost leaves: %v", got)
		}
	}
}

// decayedWeight draws a weight the way the hot-set estimator builds one:
// a few periods of small access counts, each period ending with a decay
// by 0.4, so the weights are sums of powers of 0.4 with many exact and
// near ties.
func decayedWeight(rng *rand.Rand) float64 {
	var v float64
	for p := 1 + rng.Intn(4); p > 0; p-- {
		v += float64(rng.Intn(4))
		v *= 0.4
	}
	return v
}

// Property: HuTucker equals the O(n³) DP optimum (OptimalAlphabetic) on
// tie-heavy float weights and keeps key order.
func TestQuickHuTuckerOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(300)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = decayedWeight(rng)
		}
		items := mkItems(weights...)
		ht, err := HuTucker(items)
		if err != nil {
			t.Logf("seed=%d n=%d: HuTucker: %v", seed, n, err)
			return false
		}
		if n == 1 {
			return WeightedPathLength(ht) == 0
		}
		opt, err := OptimalAlphabetic(items)
		if err != nil {
			return false
		}
		if a, b := WeightedPathLength(ht), WeightedPathLength(opt); !closeRel(a, b) {
			t.Logf("seed=%d n=%d: HuTucker WPL %g != DP %g", seed, n, a, b)
			return false
		}
		want := make([]string, n)
		for i := range items {
			want[i] = items[i].Label
		}
		return sameOrder(inorderLeaves(ht), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestHuTuckerSmallTies sweeps small catalogs whose weights come from
// {0, 1, 2, 3}, so nearly every comparison in the combination phase is a
// tie, and requires the DP's exact cost on each.
func TestHuTuckerSmallTies(t *testing.T) {
	rng := stats.NewRNG(1)
	for c := 0; c < 5000; c++ {
		weights := make([]float64, 2+rng.Intn(9))
		for i := range weights {
			weights[i] = float64(rng.Intn(4))
		}
		items := mkItems(weights...)
		ht, err := HuTucker(items)
		if err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
		opt, err := OptimalAlphabetic(items)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := WeightedPathLength(ht), WeightedPathLength(opt); a != b {
			t.Fatalf("weights %v: HuTucker WPL %g != DP %g", weights, a, b)
		}
	}
}

// closeRel reports whether a and b agree within 1e-9 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestHuTuckerStationTies pins the tree build on a station's period-0
// hot set (1000 keys with only a few dozen distinct decayed weights,
// captured from `e2ebench --workload station --seed 9`), where the
// earlier pair-scan Hu–Tucker failed its reconstruction on the ties.
func TestHuTuckerStationTies(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "station-seed9-period0.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var it Item
		if _, err := fmt.Sscan(line, &it.Key, &it.Weight); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		it.Label = fmt.Sprintf("key-%d", it.Key)
		items = append(items, it)
	}
	if len(items) != 1000 {
		t.Fatalf("read %d items, want 1000", len(items))
	}
	ht, err := HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(items))
	for i := range items {
		want[i] = items[i].Label
	}
	if !sameOrder(inorderLeaves(ht), want) {
		t.Fatal("tree does not keep key order")
	}
	opt, err := OptimalAlphabetic(items)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := WeightedPathLength(ht), WeightedPathLength(opt); !closeRel(a, b) {
		t.Fatalf("HuTucker WPL %v != DP %v", a, b)
	}
}

// Property: Huffman is a lower bound for every alphabetic construction,
// and the greedy KAry respects order and is never better than OptimalKAry.
func TestQuickConstructionHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(50))
		}
		items := mkItems(weights...)
		huff, err := Huffman(items)
		if err != nil {
			return false
		}
		ht, err := HuTucker(items)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(3)
		optK, err := OptimalKAry(items, k)
		if err != nil {
			return false
		}
		greedyK, err := KAry(items, k)
		if err != nil {
			return false
		}
		wHuff := WeightedPathLength(huff)
		wHT := WeightedPathLength(ht)
		wOptK := WeightedPathLength(optK)
		wGreedy := WeightedPathLength(greedyK)
		if wHuff > wHT+1e-9 {
			t.Logf("seed=%d: huffman %g > hu-tucker %g", seed, wHuff, wHT)
			return false
		}
		if wOptK > wHT+1e-9 { // wider-or-equal fanout never worse than binary
			t.Logf("seed=%d: optK %g > binary %g", seed, wOptK, wHT)
			return false
		}
		if wGreedy < wOptK-1e-9 {
			t.Logf("seed=%d: greedy %g < optimal %g", seed, wGreedy, wOptK)
			return false
		}
		want := make([]string, n)
		for i := range items {
			want[i] = items[i].Label
		}
		return sameOrder(inorderLeaves(greedyK), want) && sameOrder(inorderLeaves(optK), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHuTucker64(b *testing.B) {
	rng := stats.NewRNG(1)
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(100))
	}
	items := mkItems(weights...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HuTucker(items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalKAry32(b *testing.B) {
	rng := stats.NewRNG(1)
	weights := make([]float64, 32)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(100))
	}
	items := mkItems(weights...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalKAry(items, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDepthLimitedBasics(t *testing.T) {
	items := mkItems(10, 1, 1, 1, 1, 1, 1, 10)
	// Generous budget: must match the unconstrained optimum.
	free, err := OptimalKAry(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := OptimalKAryDepthLimited(items, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if WeightedPathLength(loose) != WeightedPathLength(free) {
		t.Fatalf("loose budget WPL %g != unconstrained %g",
			WeightedPathLength(loose), WeightedPathLength(free))
	}
	// Tight budget: 8 items at fanout 2 need depth 3 exactly (a complete
	// binary tree), and every leaf must respect it.
	tight, err := OptimalKAryDepthLimited(items, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tight.DataIDs() {
		if tight.Level(d)-1 > 3 {
			t.Fatalf("leaf %s at depth %d > 3", tight.Label(d), tight.Level(d)-1)
		}
	}
	if WeightedPathLength(tight) < WeightedPathLength(free) {
		t.Fatal("constrained tree beat the unconstrained optimum")
	}
	// Impossible budget errors.
	if _, err := OptimalKAryDepthLimited(items, 2, 2); err == nil {
		t.Fatal("want error: 8 items cannot fit in depth 2 at fanout 2")
	}
}

func TestDepthLimitedArgErrors(t *testing.T) {
	items := mkItems(1, 2)
	if _, err := OptimalKAryDepthLimited(items, 1, 3); err == nil {
		t.Fatal("want fanout error")
	}
	if _, err := OptimalKAryDepthLimited(items, 2, -1); err == nil {
		t.Fatal("want depth error")
	}
	single := mkItems(5)
	tr, err := OptimalKAryDepthLimited(single, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatal("single item should be a bare leaf at any budget")
	}
}

// Property: the depth-limited optimum preserves key order, respects the
// budget, is monotone in the budget, and meets the unconstrained DP when
// the budget is slack.
func TestQuickDepthLimited(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(50))
		}
		items := mkItems(weights...)
		k := 2 + rng.Intn(2)
		// Minimal feasible depth: ceil(log_k n).
		minD := 0
		for c := 1; c < n; c *= k {
			minD++
		}
		prev := math.Inf(1)
		for d := minD; d <= minD+3; d++ {
			tr, err := OptimalKAryDepthLimited(items, k, d)
			if err != nil {
				t.Logf("seed=%d n=%d k=%d d=%d: %v", seed, n, k, d, err)
				return false
			}
			for _, leaf := range tr.DataIDs() {
				if tr.Level(leaf)-1 > d {
					return false
				}
			}
			want := make([]string, n)
			for i := range items {
				want[i] = items[i].Label
			}
			if !sameOrder(inorderLeaves(tr), want) {
				return false
			}
			wpl := WeightedPathLength(tr)
			if wpl > prev+1e-9 {
				t.Logf("seed=%d: WPL increased with budget (%g -> %g at d=%d)", seed, prev, wpl, d)
				return false
			}
			prev = wpl
		}
		free, err := OptimalKAry(items, k)
		if err != nil {
			return false
		}
		slack, err := OptimalKAryDepthLimited(items, k, n)
		if err != nil {
			return false
		}
		return math.Abs(WeightedPathLength(slack)-WeightedPathLength(free)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
