package broadcast_test

import (
	"fmt"
	"testing"

	"repro/broadcast"
	"repro/internal/alphatree"
)

// ExampleOptimize builds the paper's Fig. 1(a) example tree and finds the
// optimal two-channel allocation (data wait 264/70 ≈ 3.77 buckets).
func ExampleOptimize() {
	b := broadcast.NewBuilder()
	n1 := b.AddRoot("1")
	n2 := b.AddIndex(n1, "2")
	b.AddData(n2, "A", 20)
	b.AddData(n2, "B", 10)
	n3 := b.AddIndex(n1, "3")
	b.AddData(n3, "E", 18)
	n4 := b.AddIndex(n3, "4")
	b.AddData(n4, "C", 15)
	b.AddData(n4, "D", 7)
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}

	sched, err := broadcast.Optimize(tree, broadcast.Options{Channels: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("data wait: %.4f buckets (optimal: %v)\n", sched.DataWait(), sched.Optimal)
	fmt.Println(sched.Alloc)
	// Output:
	// data wait: 3.7714 buckets (optimal: true)
	// C1: 1 2 A B D
	// C2: - 3 E 4 C
}

// ExampleNewCatalogTree builds a Hu–Tucker search tree over a keyed
// catalog and looks an item up through the simulated broadcast.
func ExampleNewCatalogTree() {
	items := []broadcast.Item{
		{Label: "ants", Key: 1, Weight: 40},
		{Label: "bees", Key: 2, Weight: 10},
		{Label: "cats", Key: 3, Weight: 30},
		{Label: "dogs", Key: 4, Weight: 20},
	}
	tree, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		panic(err)
	}
	sched, err := broadcast.Optimize(tree, broadcast.Options{Channels: 1})
	if err != nil {
		panic(err)
	}
	m, found, err := sched.QueryKey(0, 3, broadcast.Power{Active: 1, Doze: 0.05})
	if err != nil {
		panic(err)
	}
	fmt.Printf("found=%v wait=%d slots tuning=%d buckets\n", found, m.DataWait, m.TuningTime)
	// Output:
	// found=true wait=6 slots tuning=4 buckets
}

// TestExampleNewCatalogTreeOptimal backs ExampleNewCatalogTree: its
// weights admit two alphabetic trees of cost 200, and whichever one the
// tree build picks must cost what the interval DP finds.
func TestExampleNewCatalogTreeOptimal(t *testing.T) {
	items := []broadcast.Item{
		{Label: "ants", Key: 1, Weight: 40},
		{Label: "bees", Key: 2, Weight: 10},
		{Label: "cats", Key: 3, Weight: 30},
		{Label: "dogs", Key: 4, Weight: 20},
	}
	tree, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := alphatree.OptimalAlphabetic(items)
	if err != nil {
		t.Fatal(err)
	}
	got, want := alphatree.WeightedPathLength(tree), alphatree.WeightedPathLength(opt)
	if got != want || got != 200 {
		t.Fatalf("catalog tree cost %g, DP optimum %g, want both 200", got, want)
	}
}

// ExampleSchedule_QueryRange retrieves all items in a key range.
func ExampleSchedule_QueryRange() {
	items := []broadcast.Item{
		{Label: "a", Key: 10, Weight: 4},
		{Label: "b", Key: 20, Weight: 3},
		{Label: "c", Key: 30, Weight: 2},
		{Label: "d", Key: 40, Weight: 1},
	}
	tree, err := broadcast.NewCatalogTree(items, 2)
	if err != nil {
		panic(err)
	}
	sched, err := broadcast.Optimize(tree, broadcast.Options{Channels: 2})
	if err != nil {
		panic(err)
	}
	keys, _, err := sched.QueryRange(0, 15, 35, broadcast.Power{Active: 1, Doze: 0.05})
	if err != nil {
		panic(err)
	}
	fmt.Println(keys)
	// Output:
	// [20 30]
}

// ExampleStation shows the full server loop: demand shifts, the station
// re-selects what goes on the air and re-optimizes the broadcast.
func ExampleStation() {
	universe := []broadcast.Item{
		{Label: "news", Key: 1, Weight: 30},
		{Label: "sport", Key: 2, Weight: 20},
		{Label: "chess", Key: 3, Weight: 1},
		{Label: "gardening", Key: 4, Weight: 1},
	}
	station, err := broadcast.NewStation(universe, broadcast.StationConfig{
		HotSize: 2,
		Decay:   0.3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("chess on air:", station.OnAir(3))

	// A chess championship breaks out.
	for period := 0; period < 4; period++ {
		for i := 0; i < 100; i++ {
			station.Record(3)
		}
		if _, _, err := station.EndPeriod(); err != nil {
			panic(err)
		}
	}
	fmt.Println("chess on air:", station.OnAir(3))
	// Output:
	// chess on air: false
	// chess on air: true
}
