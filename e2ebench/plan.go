package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/broadcast"
	"repro/internal/core"
	"repro/internal/sim"
)

// zipfCDF draws ranks 0..n-1 with P(r) ∝ 1/(r+1)^θ by binary search over
// a cumulative table built once, so a draw costs O(log n) instead of the
// O(n) weight table a naive sampler rebuilds per draw.
type zipfCDF []float64

func newZipf(n int, theta float64) zipfCDF {
	z := make(zipfCDF, n)
	total := 0.0
	for r := range z {
		total += 1 / math.Pow(float64(r+1), theta)
		z[r] = total
	}
	return z
}

func (z zipfCDF) rank(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z, rng.Float64()*z[len(z)-1])
	if r >= len(z) {
		r = len(z) - 1
	}
	return r
}

// buildPlan is the plan pipeline of a rebuild — catalog tree, solve,
// compile — with a span around each layer call. It returns the program
// and its Formula-1 data wait.
func buildPlan(items []broadcast.Item, fanout int, cfg core.Config, l *spanLog, id int64, parent int) (*sim.Program, float64, error) {
	s := l.begin("alphatree.tree", id, parent)
	t, err := broadcast.NewCatalogTree(items, fanout)
	l.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("catalog tree: %w", err)
	}
	s = l.begin("core.solve", id, parent)
	sol, err := core.Solve(t, cfg)
	l.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("solve: %w", err)
	}
	s = l.begin("sim.compile", id, parent)
	prog, err := sim.Compile(sol.Alloc, sim.Options{})
	l.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("compile: %w", err)
	}
	return prog, sol.Alloc.DataWait(), nil
}

// allocProbe counts the heap allocations of the tree build and the solve
// on the given plan inputs. It must run while no other benchmark
// goroutine works, because the runtime's counts are process-wide.
func allocProbe(inputs [][]broadcast.Item, fanout int, cfg core.Config, rep *report) error {
	var tree, solve uint64
	for _, items := range inputs {
		before := mallocs()
		t, err := broadcast.NewCatalogTree(items, fanout)
		if err != nil {
			return fmt.Errorf("alloc probe: %w", err)
		}
		mid := mallocs()
		if _, err := core.Solve(t, cfg); err != nil {
			return fmt.Errorf("alloc probe: %w", err)
		}
		tree += mid - before
		solve += mallocs() - mid
	}
	n := len(inputs)
	rep.metric("alphatree.allocs_per_build", "count", float64(tree)/float64(n), n)
	rep.metric("core.allocs_per_solve", "count", float64(solve)/float64(n), n)
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// spanMetrics are the per-layer timings read off the spans of a traced
// run: metric name, span name, unit and quantile.
var spanMetrics = []struct {
	metric, span string
	unit         string
	q            float64
}{
	{"netcast.dial_ms_p50", "netcast.dial", "ms", 0.5},
	{"netcast.close_us_p50", "netcast.close", "us", 0.5},
	{"netcast.lookup_ms_p50", "netcast.lookup", "ms", 0.5},
	{"netcast.lookup_ms_p99", "netcast.lookup", "ms", 0.99},
	{"alphatree.tree_ms_p50", "alphatree.tree", "ms", 0.5},
	{"core.solve_ms_p50", "core.solve", "ms", 0.5},
	{"sim.compile_ms_p50", "sim.compile", "ms", 0.5},
	{"epoch.stage_ms_p50", "epoch.stage", "ms", 0.5},
	{"broadcast.close_period_ms_p50", "broadcast.close_period", "ms", 0.5},
	{"broadcast.plan_ms_p50", "broadcast.plan", "ms", 0.5},
	{"broadcast.install_us_p50", "broadcast.install", "us", 0.5},
}

// layerUnits lists every per-layer metric with its unit. A workload that
// never calls a layer reports its metrics as 0: no work was done there.
var layerUnits = []struct{ name, unit string }{
	{"netcast.dial_ms_p50", "ms"},
	{"netcast.close_us_p50", "us"},
	{"netcast.conns_per_lookup", "count"},
	{"netcast.lookup_ms_p50", "ms"},
	{"netcast.lookup_ms_p99", "ms"},
	{"netcast.tick_us_p50", "us"},
	{"netcast.tick_us_p99", "us"},
	{"netcast.ticks_per_s", "1/s"},
	{"netcast.ticks_per_lookup", "count"},
	{"netcast.frames_per_lookup", "count"},
	{"netcast.requests_per_lookup", "count"},
	{"netcast.allocs_per_lookup", "count"},
	{"netcast.alloc_bytes_per_lookup", "B"},
	{"alphatree.tree_ms_p50", "ms"},
	{"alphatree.allocs_per_build", "count"},
	{"core.solve_ms_p50", "ms"},
	{"core.allocs_per_solve", "count"},
	{"sim.compile_ms_p50", "ms"},
	{"epoch.stage_ms_p50", "ms"},
	{"epoch.swaps_per_stage", "ratio"},
	{"broadcast.record_ns_mean", "ns"},
	{"broadcast.close_period_ms_p50", "ms"},
	{"broadcast.plan_ms_p50", "ms"},
	{"broadcast.install_us_p50", "us"},
	{"sim.query_us_p50", "us"},
	{"obs.overhead_ratio", "ratio"},
	{"bench.self_share", "ratio"},
}

// layerMetrics adds the span-derived timings and fills every per-layer
// metric the workload did not produce with 0.
func layerMetrics(tr *tracer, rep *report) {
	for _, m := range spanMetrics {
		unit := time.Millisecond
		if m.unit == "us" {
			unit = time.Microsecond
		}
		d := tr.durations(m.span)
		if len(d) > 0 {
			rep.metric(m.metric, m.unit, quantile(durations(d, unit), m.q), len(d))
		}
	}
	for _, m := range layerUnits {
		if _, ok := rep.values[m.name]; !ok {
			rep.metric(m.name, m.unit, 0, 0)
		}
	}
}
