// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure (E1–E3) plus one per ablation (A1–A4); the reported
// per-op time is the cost of regenerating the artifact once. The actual
// values the paper reports are produced by cmd/bcast-bench and recorded
// in EXPERIMENTS.md. BenchmarkCatalogTree and BenchmarkSolveSorting time
// the two plan layers of a station replan on their own.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/stats"
)

// BenchmarkTable1 regenerates the Table 1 row for each fanout (E1).
// m = 5 and 6 are bounded by the enumeration limit exactly like the
// published table's N/A entries; m = 6's surviving-path enumeration is
// the expensive part (about 10s), so it gets a reduced default.
func BenchmarkTable1(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		b.Run(benchName("m", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiment.Table1(experiment.Table1Config{
					Ms: []int{m}, Trials: 1, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 1 {
					b.Fatal("missing row")
				}
			}
		})
	}
}

// BenchmarkFig14 regenerates one Fig. 14 point per sigma (E2): an optimal
// data-tree search plus the sorting heuristic on a 21-node tree.
func BenchmarkFig14(b *testing.B) {
	for _, sigma := range []float64{10, 20, 30, 40} {
		b.Run(benchName("sigma", int(sigma)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiment.Fig14(experiment.Fig14Config{
					Sigmas: []float64{sigma}, Trials: 1, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if points[0].Optimal > points[0].Sorting+1e-9 {
					b.Fatal("optimal above sorting")
				}
			}
		})
	}
}

// BenchmarkFig2 regenerates the worked example (E3): both paper
// allocations plus the exact 1- and 2-channel optima.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelSweep regenerates the A1 ablation.
func BenchmarkChannelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ChannelSweep(experiment.ChannelSweepConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruningAblation regenerates the A2 ablation.
func BenchmarkPruningAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.PruningAblation(experiment.PruningAblationConfig{
			Trials: 3, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicQuality regenerates the A3 ablation.
func BenchmarkHeuristicQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.HeuristicQuality(experiment.HeuristicQualityConfig{
			Trials: 5, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimComparison regenerates the A4 ablation: four schemes driven
// through the full bucket-level simulator.
func BenchmarkSimComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SimComparison(experiment.SimComparisonConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s=%d", prefix, v)
}

// BenchmarkTreeShape regenerates the A5 ablation: five index-tree
// constructions built, allocated and measured in the simulator.
func BenchmarkTreeShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TreeShape(experiment.TreeShapeConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationSweep regenerates the A6 ablation.
func BenchmarkReplicationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ReplicationSweep(experiment.ReplicationConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeScale regenerates the A7 study at its smallest size.
func BenchmarkLargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.LargeScale(experiment.LargeScaleConfig{
			Sizes: []int{100}, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanBatch measures the A11 batch planners alone on a fixed
// compiled two-channel program: the exact DP at its default K ceiling
// and the greedy fallback over the full catalog. The catalog is solved
// once outside the timer so only planning is measured.
func BenchmarkPlanBatch(b *testing.B) {
	rng := stats.NewRNG(1)
	items := make([]alphatree.Item, 24)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  fmt.Sprintf("i%02d", i),
			Key:    int64(i + 1),
			Weight: float64(1 + rng.Intn(100)),
		}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Solve(tr, core.Config{Channels: 2})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sim.Compile(sol.Alloc, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	planner := retrieval.New(retrieval.Config{})
	data := prog.Tree().DataIDs()
	b.Run(benchName("exact/K", 8), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planner.PlanExact(prog, i%prog.CycleLen(), data[:8]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(benchName("greedy/K", len(data)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planner.PlanGreedy(prog, i%prog.CycleLen(), data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig14Multi regenerates one cell of the multichannel Fig. 14
// extension (E2b).
func BenchmarkFig14Multi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig14Multi(experiment.Fig14MultiConfig{
			Sigmas: []float64{20}, Ks: []int{2}, Trials: 1, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// catalog returns n keyed items. With ties the weights are a station's:
// small access counts decayed by 0.4, as the hot-set estimator hands them
// to the plan pipeline; otherwise they are uniform in [0, 100).
func catalog(n int, ties bool) []alphatree.Item {
	rng := stats.NewRNG(int64(n))
	items := make([]alphatree.Item, n)
	for i := range items {
		w := rng.Float64() * 100
		if ties {
			w = float64(1+rng.Intn(8)) * 0.4
		}
		items[i] = alphatree.Item{Label: fmt.Sprintf("item-%05d", i+1), Key: int64(i + 1), Weight: w}
	}
	return items
}

// BenchmarkCatalogTree times the replan's first layer: the optimal
// alphabetic (fanout 2) tree over a station-sized catalog.
func BenchmarkCatalogTree(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, ties := range []bool{true, false} {
			items := catalog(n, ties)
			b.Run(fmt.Sprintf("keys=%d/ties=%v", n, ties), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := alphatree.HuTucker(items); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveSorting times the replan's second layer: Index Tree
// Sorting with the 1_To_k procedure on four channels, without Polish,
// over the catalog tree BenchmarkCatalogTree builds.
func BenchmarkSolveSorting(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		t, err := alphatree.HuTucker(catalog(n, true))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("keys", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(t, core.Config{Channels: 4, Strategy: core.Sorting}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
