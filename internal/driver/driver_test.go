package driver

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tree"
)

var pw = sim.Power{Active: 1, Doze: 0.05}

func keyedProgram(t testing.TB, n, k int, seed int64) *sim.Program {
	t.Helper()
	rng := stats.NewRNG(seed)
	items := make([]alphatree.Item, n)
	for i := range items {
		items[i] = alphatree.Item{Label: "k", Key: int64(i + 1), Weight: float64(1 + rng.Intn(100))}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(tr, core.Config{Channels: k})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Compile(sol.Alloc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayMeanMatchesEvaluate: with many point queries, the empirical
// mean access time converges to the exact expectation.
func TestReplayMeanMatchesEvaluate(t *testing.T) {
	p := keyedProgram(t, 10, 2, 1)
	rep, err := Run(p, Config{Queries: 20000, Seed: 7, Power: pw})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Evaluate(p, pw, sim.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Access.Mean-want.AccessTime) > 0.35 {
		t.Fatalf("replay mean access %g, expectation %g", rep.Access.Mean, want.AccessTime)
	}
	if math.Abs(rep.Energy.Mean-want.Energy) > 0.2 {
		t.Fatalf("replay mean energy %g, expectation %g", rep.Energy.Mean, want.Energy)
	}
	if rep.PointQueries != rep.Queries || rep.RangeQueries != 0 {
		t.Fatalf("query mix: %+v", rep)
	}
	// Percentiles are ordered and bracket the mean.
	if rep.Access.P95 < rep.Access.Median || rep.Access.Max < rep.Access.P95 {
		t.Fatalf("disordered percentiles: %+v", rep.Access)
	}
}

func TestReplayWithRanges(t *testing.T) {
	p := keyedProgram(t, 12, 2, 2)
	rep, err := Run(p, Config{Queries: 500, Seed: 3, Power: pw, RangeFraction: 0.5, RangeSpan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RangeQueries == 0 || rep.PointQueries == 0 {
		t.Fatalf("query mix: %+v", rep)
	}
	if rep.RangeQueries+rep.PointQueries != rep.Queries {
		t.Fatalf("mix does not add up: %+v", rep)
	}
	if rep.ItemsPerRange.Max > 3 {
		t.Fatalf("range span violated: %+v", rep.ItemsPerRange)
	}
}

func TestReplayConfigErrors(t *testing.T) {
	p := keyedProgram(t, 4, 1, 4)
	if _, err := Run(p, Config{Queries: -1}); err == nil {
		t.Fatal("want error for negative queries")
	}
	if _, err := Run(p, Config{RangeFraction: 1.5}); err == nil {
		t.Fatal("want error for bad fraction")
	}
	// Range queries on an unkeyed tree error.
	res, err := topo.Exact(tree.Fig1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := sim.Compile(res.Alloc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(up, Config{RangeFraction: 0.5}); err == nil {
		t.Fatal("want error for unkeyed range replay")
	}
	// But pure point replays work on unkeyed trees.
	if _, err := Run(up, Config{Queries: 50, Power: pw}); err != nil {
		t.Fatal(err)
	}
}

// Property: replays are deterministic per seed and every metric is
// positive and internally consistent.
func TestQuickReplayDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		p := keyedProgram(t, 6, 2, seed)
		a, err := Run(p, Config{Queries: 100, Seed: seed, Power: pw, RangeFraction: 0.3})
		if err != nil {
			return false
		}
		b, err := Run(p, Config{Queries: 100, Seed: seed, Power: pw, RangeFraction: 0.3})
		if err != nil {
			return false
		}
		if a.Access.Mean != b.Access.Mean || a.RangeQueries != b.RangeQueries {
			return false
		}
		return a.Access.Min >= 1 && a.Tuning.Min >= 1 && a.Energy.Min > 0 &&
			a.Tuning.Mean <= a.Access.Mean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReplay1000(b *testing.B) {
	p := keyedProgram(b, 16, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Config{Queries: 1000, Seed: int64(i), Power: pw}); err != nil {
			b.Fatal(err)
		}
	}
}
