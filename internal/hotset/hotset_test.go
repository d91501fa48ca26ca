package hotset

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func mustNew(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Decay: 1.5}); err == nil {
		t.Fatal("want error for decay > 1")
	}
	if _, err := New(Config{Decay: -0.1}); err == nil {
		t.Fatal("want error for negative decay")
	}
	if _, err := New(Config{Floor: -1}); err == nil {
		t.Fatal("want error for negative floor")
	}
	if _, err := New(Config{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestRecordAndEstimate(t *testing.T) {
	e := mustNew(t, Config{})
	for i := 0; i < 5; i++ {
		e.Record(42)
	}
	e.Record(7)
	if got := e.Estimate(42); got != 5 {
		t.Fatalf("Estimate(42) = %g, want 5", got)
	}
	if got := e.Estimate(7); got != 1 {
		t.Fatalf("Estimate(7) = %g, want 1", got)
	}
	if got := e.Estimate(999); got != 0 {
		t.Fatalf("Estimate(999) = %g, want 0", got)
	}
	if e.Tracked() != 2 {
		t.Fatalf("Tracked = %d", e.Tracked())
	}
}

func TestDecayAndFloor(t *testing.T) {
	e := mustNew(t, Config{Decay: 0.5, Floor: 0.3})
	e.Record(1) // counter 1
	e.Tick()    // 0.5
	if got := e.Estimate(1); got != 0.5 {
		t.Fatalf("after one tick: %g", got)
	}
	e.Tick() // 0.25 < floor -> dropped
	if got := e.Estimate(1); got != 0 {
		t.Fatalf("counter not dropped: %g", got)
	}
	if e.Tracked() != 0 {
		t.Fatalf("Tracked = %d after floor drop", e.Tracked())
	}
	if e.Ticks() != 2 {
		t.Fatalf("Ticks = %d", e.Ticks())
	}
}

func TestSelectTopN(t *testing.T) {
	e := mustNew(t, Config{})
	for key, count := range map[int64]int{10: 7, 20: 3, 30: 9, 40: 1} {
		for i := 0; i < count; i++ {
			e.Record(key)
		}
	}
	hot, coverage := e.Select(2)
	if len(hot) != 2 || hot[0].Key != 30 || hot[1].Key != 10 {
		t.Fatalf("Select(2) = %v", hot)
	}
	want := 16.0 / 20.0
	if coverage != want {
		t.Fatalf("coverage = %g, want %g", coverage, want)
	}
	// Selecting more than tracked returns everything at full coverage.
	all, coverage := e.Select(10)
	if len(all) != 4 || coverage != 1 {
		t.Fatalf("Select(10) = %v coverage %g", all, coverage)
	}
	if got, cov := e.Select(0); got != nil || cov != 0 {
		t.Fatalf("Select(0) = %v, %g", got, cov)
	}
}

func TestSelectTieBreakDeterministic(t *testing.T) {
	e := mustNew(t, Config{})
	e.Record(5)
	e.Record(3)
	e.Record(9)
	hot, _ := e.Select(2)
	if hot[0].Key != 3 || hot[1].Key != 5 {
		t.Fatalf("tie break not by ascending key: %v", hot)
	}
}

func TestChurn(t *testing.T) {
	prev := []HotKey{{Key: 1}, {Key: 2}, {Key: 3}}
	next := []HotKey{{Key: 2}, {Key: 4}}
	if got := Churn(prev, next); got != 2 {
		t.Fatalf("Churn = %d, want 2 (dropped 1 and 3)", got)
	}
	if got := Churn(nil, next); got != 0 {
		t.Fatalf("Churn(nil, ...) = %d", got)
	}
	if got := Churn(prev, nil); got != 3 {
		t.Fatalf("Churn(..., nil) = %d", got)
	}
}

// TestHotSetAdapts: a shifted workload replaces the hot set within a few
// periods — the [DCK97] adaptive story.
func TestHotSetAdapts(t *testing.T) {
	e := mustNew(t, Config{Decay: 0.5})
	// Era 1: keys 1..5 dominate.
	for period := 0; period < 3; period++ {
		for key := int64(1); key <= 5; key++ {
			for i := 0; i < 20; i++ {
				e.Record(key)
			}
		}
		e.Tick()
	}
	hot1, _ := e.Select(5)
	for _, h := range hot1 {
		if h.Key > 5 {
			t.Fatalf("era-1 hot set contains %d", h.Key)
		}
	}
	// Era 2: keys 11..15 take over completely.
	for period := 0; period < 6; period++ {
		for key := int64(11); key <= 15; key++ {
			for i := 0; i < 20; i++ {
				e.Record(key)
			}
		}
		e.Tick()
	}
	hot2, coverage := e.Select(5)
	for _, h := range hot2 {
		if h.Key < 11 {
			t.Fatalf("era-2 hot set still contains %d (coverage %g)", h.Key, coverage)
		}
	}
	if Churn(hot1, hot2) != 5 {
		t.Fatalf("expected full churn, got %d", Churn(hot1, hot2))
	}
	if coverage < 0.95 {
		t.Fatalf("era-2 coverage = %g", coverage)
	}
}

func TestConcurrentRecording(t *testing.T) {
	e := mustNew(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Record(int64(i % 17))
				if i%100 == 0 {
					e.Select(5)
					e.Tick()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Tracked() == 0 {
		t.Fatal("all counters lost")
	}
}

// Property: under a stable weighted workload, Select(n) returns the true
// top-n keys and coverage grows monotonically with n.
func TestQuickSelectMatchesTrueTopN(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		e, err := New(Config{})
		if err != nil {
			return false
		}
		universe := 5 + rng.Intn(20)
		counts := make(map[int64]int, universe)
		for key := 0; key < universe; key++ {
			c := 1 + rng.Intn(50)
			counts[int64(key)] = c
			for i := 0; i < c; i++ {
				e.Record(int64(key))
			}
		}
		prevCoverage := 0.0
		for n := 1; n <= universe; n++ {
			hot, coverage := e.Select(n)
			if len(hot) != n {
				return false
			}
			if coverage < prevCoverage-1e-12 {
				return false
			}
			prevCoverage = coverage
			// Every selected key's count must be >= every excluded key's.
			minSelected := hot[len(hot)-1].Weight
			selected := map[int64]bool{}
			for _, h := range hot {
				selected[h.Key] = true
			}
			for key, c := range counts {
				if !selected[key] && float64(c) > minSelected {
					return false
				}
			}
		}
		return prevCoverage > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select's top-n selection equals a full sort of every counter
// by (weight descending, key ascending), cut to n, on tie-heavy counters.
func TestQuickSelectMatchesFullSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		e := mustNew(t, Config{Decay: 0.4})
		universe := 1 + rng.Intn(3000)
		for i := 2 * universe; i > 0; i-- {
			e.Record(int64(rng.Intn(universe)))
			if rng.Intn(universe) == 0 {
				e.Tick()
			}
		}
		var all []HotKey
		for k := int64(0); k < int64(universe); k++ {
			if v := e.Estimate(k); v > 0 {
				all = append(all, HotKey{Key: k, Weight: v})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Weight != all[j].Weight {
				return all[i].Weight > all[j].Weight
			}
			return all[i].Key < all[j].Key
		})
		for _, n := range []int{1, 1 + rng.Intn(universe), universe, universe + 1} {
			want := all
			if len(want) > n {
				want = want[:n]
			}
			if hot, _ := e.Select(n); !reflect.DeepEqual(hot, want) {
				t.Logf("seed=%d universe=%d n=%d: selection differs from the full sort", seed, universe, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectCoverageReproducible feeds one record sequence to several
// estimators and requires bit-identical selections and coverage from each
// of them on every call, so identical station runs report identical
// coverage. Thousands of decayed counters make the total's rounding
// depend on the order they are summed in.
func TestSelectCoverageReproducible(t *testing.T) {
	rng := stats.NewRNG(7)
	var periods [5][]int64
	for p := range periods {
		periods[p] = make([]int64, 20000)
		for i := range periods[p] {
			// A skewed demand over a 20k-key universe.
			periods[p][i] = int64(rng.ExpFloat64()*2000) % 20000
		}
	}
	var wantHot []HotKey
	var wantBits uint64
	for run := 0; run < 8; run++ {
		e, err := New(Config{Decay: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range periods {
			for _, k := range recs {
				e.Record(k)
			}
			e.Tick()
		}
		for call := 0; call < 3; call++ {
			hot, coverage := e.Select(1000)
			bits := math.Float64bits(coverage)
			if run == 0 && call == 0 {
				wantHot, wantBits = hot, bits
				continue
			}
			if bits != wantBits {
				t.Fatalf("run %d call %d: coverage %v (bits %#x), first run %v (bits %#x)",
					run, call, coverage, bits, math.Float64frombits(wantBits), wantBits)
			}
			if !reflect.DeepEqual(hot, wantHot) {
				t.Fatalf("run %d call %d: selection differs from the first run's", run, call)
			}
		}
	}
}

func BenchmarkRecordSelect(b *testing.B) {
	e, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Record(int64(i % 1024))
		if i%1024 == 0 {
			e.Select(64)
			e.Tick()
		}
	}
}
