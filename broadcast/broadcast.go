// Package broadcast is the public API of the library: building broadcast
// index trees from keyed catalogs, computing optimal or heuristic index
// and data allocations over any number of channels (Lo & Chen, ICDE
// 2000), compiling them into runnable broadcast programs, and simulating
// mobile clients against them.
//
// Typical use:
//
//	items := []broadcast.Item{{Label: "AAPL", Key: 1, Weight: 120}, ...}
//	tree, _ := broadcast.NewCatalogTree(items, 2)
//	sched, _ := broadcast.Optimize(tree, broadcast.Options{Channels: 3})
//	fmt.Println(sched.Alloc)                  // the channel/slot grid
//	m, _, _ := sched.QueryKey(0, 1)           // simulate a client lookup
package broadcast

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/searchstats"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Re-exported building blocks. The aliases keep the public surface in one
// import while the implementations stay internal.
type (
	// Tree is an immutable broadcast index tree.
	Tree = tree.Tree
	// ID identifies a node within a Tree.
	ID = tree.ID
	// Builder assembles custom Trees node by node.
	Builder = tree.Builder
	// Spec is the JSON-serializable tree description.
	Spec = tree.Spec
	// Allocation maps every node to a (channel, slot) position.
	Allocation = alloc.Allocation
	// Item is a keyed, weighted catalog entry.
	Item = alphatree.Item
	// Power is the client energy model.
	Power = sim.Power
	// Metrics is one simulated query's cost.
	Metrics = sim.Metrics
	// Strategy selects the solving method.
	Strategy = core.Strategy
)

// Solver strategies.
const (
	Auto         = core.Auto
	Exact        = core.Exact
	PrunedSearch = core.PrunedSearch
	DataTree     = core.DataTree
	Sorting      = core.Sorting
	Shrinking    = core.Shrinking
	Partitioning = core.Partitioning
)

// NewBuilder starts a custom tree.
func NewBuilder() *Builder { return tree.NewBuilder() }

// ParseTree decodes a tree from its Spec JSON.
func ParseTree(data []byte) (*Tree, error) { return tree.ParseJSON(data) }

// NewCatalogTree builds an alphabetic search tree over the keyed items:
// the optimal Hu–Tucker tree for fanout 2, the optimal DP tree for wider
// fanouts on small catalogs, and the fast weight-balanced construction on
// large ones.
func NewCatalogTree(items []Item, fanout int) (*Tree, error) {
	switch {
	case fanout < 2:
		return nil, fmt.Errorf("broadcast: fanout %d, want >= 2", fanout)
	case fanout == 2:
		return alphatree.HuTucker(items)
	case len(items) <= 128:
		return alphatree.OptimalKAry(items, fanout)
	default:
		return alphatree.KAry(items, fanout)
	}
}

// NewCatalogTreeBounded builds the optimal alphabetic search tree with
// fanout at most fanout whose items sit at most maxDepth index probes
// from the root — a hard cap on worst-case tuning time. It errors when
// the catalog cannot fit the budget.
func NewCatalogTreeBounded(items []Item, fanout, maxDepth int) (*Tree, error) {
	return alphatree.OptimalKAryDepthLimited(items, fanout, maxDepth)
}

// Options configures Optimize.
type Options struct {
	// Channels is the number of broadcast channels; defaults to 1.
	Channels int
	// Strategy picks the solver; Auto (default) is exact on small trees
	// and falls back to Index Tree Sorting on large ones.
	Strategy Strategy
	// MaxExactData overrides Auto's exact-search size limit (default 12).
	MaxExactData int
	// ReplicateRoot fills empty first-channel slots with copies of the
	// index root, cutting the client's initial probe (the paper's
	// replication future-work direction).
	ReplicateRoot bool
	// Polish runs the exchange-based local search over heuristic results.
	Polish bool
	// MaxExpanded caps exact-search expansions (0 = unlimited).
	MaxExpanded int
	// FallbackOnLimit degrades to the sorting heuristic instead of
	// failing when MaxExpanded trips; the limit error is preserved on
	// Schedule.LimitErr and Optimal is reported false.
	FallbackOnLimit bool
	// LiveChannels restricts the plan to the listed physical channels —
	// the survivors of an outage. The solver plans at survivor width and
	// the compiled program is remapped back onto the full Channels-wide
	// tower, dark channels transmitting filler, so the schedule stays
	// hot-swappable against a full-width predecessor. Must be strictly
	// increasing within [1, Channels]; empty means all channels are live.
	LiveChannels []int
}

// Schedule is an optimized, compiled broadcast.
type Schedule struct {
	// Alloc is the channel/slot assignment.
	Alloc *Allocation
	// Optimal reports whether Alloc is provably optimal.
	Optimal bool
	// Used is the strategy that produced Alloc.
	Used Strategy
	// LimitErr records the expansion-limit error an exact solve hit
	// before Options.FallbackOnLimit rescued it with a heuristic; nil on
	// a clean solve.
	LimitErr error
	// Stats holds the per-search performance counters of the solve that
	// produced Alloc (zero when a closed-form or heuristic path ran).
	Stats searchstats.Stats

	program *sim.Program
}

// Optimize computes an allocation for t and compiles it into a runnable
// broadcast program.
func Optimize(t *Tree, opt Options) (*Schedule, error) {
	if opt.Channels == 0 {
		opt.Channels = 1
	}
	sol, err := core.Solve(t, core.Config{
		Channels:        opt.Channels,
		Strategy:        opt.Strategy,
		MaxExactData:    opt.MaxExactData,
		Polish:          opt.Polish,
		MaxExpanded:     opt.MaxExpanded,
		FallbackOnLimit: opt.FallbackOnLimit,
		LiveChannels:    opt.LiveChannels,
	})
	if err != nil {
		return nil, err
	}
	prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: opt.ReplicateRoot})
	if err != nil {
		return nil, err
	}
	if len(sol.Live) > 0 && len(sol.Live) < opt.Channels {
		if prog, err = prog.Remap(sol.Live, opt.Channels); err != nil {
			return nil, err
		}
	}
	return &Schedule{
		Alloc:    sol.Alloc,
		Optimal:  sol.Optimal,
		Used:     sol.Used,
		LimitErr: sol.LimitErr,
		Stats:    sol.Stats,
		program:  prog,
	}, nil
}

// DataWait returns the schedule's average data wait in buckets (the
// paper's Formula 1).
func (s *Schedule) DataWait() float64 { return s.Alloc.DataWait() }

// CycleLen returns the broadcast cycle length in slots.
func (s *Schedule) CycleLen() int { return s.program.CycleLen() }

// Program returns the compiled broadcast program the schedule serves —
// what a tower encodes onto the wire (or stages as the next epoch).
func (s *Schedule) Program() *sim.Program { return s.program }

// Query simulates a client that arrives at the given global slot and
// retrieves the data node target.
func (s *Schedule) Query(arrival int, target ID, pw Power) (Metrics, error) {
	return s.program.Query(arrival, target, pw)
}

// QueryKey simulates a keyed lookup; found is false for absent keys.
func (s *Schedule) QueryKey(arrival int, key int64, pw Power) (Metrics, bool, error) {
	return s.program.QueryKey(arrival, key, pw)
}

// QueryRange simulates a client retrieving every item with a key in
// [lo, hi], following the index with a single receiver (simultaneous
// buckets on other channels are caught on a later cycle). It returns the
// retrieved keys in retrieval order along with the query's cost.
func (s *Schedule) QueryRange(arrival int, lo, hi int64, pw Power) ([]int64, Metrics, error) {
	res, err := s.program.QueryRange(arrival, lo, hi, pw)
	return res.Keys, res.Metrics, err
}

// Measure returns the schedule's exact expected client metrics under the
// given power model (uniform arrival phase, item popularity ∝ weight).
func (s *Schedule) Measure(pw Power) (AverageMetrics, error) {
	sum, err := sim.Evaluate(s.program, pw, sim.Faults{})
	if err != nil {
		return AverageMetrics{}, err
	}
	return AverageMetrics(sum), nil
}

// AverageMetrics is the expectation of Metrics over arrivals and items.
type AverageMetrics struct {
	ProbeWait, DataWait, AccessTime, TuningTime, Energy float64
	// Retries is the expected number of redundant wake-ups per query;
	// zero unless the schedule is measured under a lossy channel.
	Retries float64
	// Restarts is the expected number of epoch-swap descent restarts per
	// query; zero for a static schedule.
	Restarts float64
	// Failovers is the expected number of dead-air channel failovers per
	// query; zero unless the schedule is measured under channel outages.
	Failovers float64
	// Reconnects is the expected number of station re-dial attempts per
	// query; zero unless the schedule is measured under station downtime.
	Reconnects float64
	// Conflicts is the expected number of batch retrieval conflicts per
	// query — wanted nodes overlapping on the air; zero for single-key
	// workloads.
	Conflicts float64
	// ExtraCycles is the expected number of whole cycles lost to those
	// conflicts per query; zero for single-key workloads.
	ExtraCycles float64
}

// ItemMetrics is one item's exact expected client cost under the
// schedule.
type ItemMetrics = sim.ItemMetrics

// MeasurePerItem returns each data item's exact expected metrics — the
// operator view of which items suffer the worst latency. Items appear in
// catalog order.
func (s *Schedule) MeasurePerItem(pw Power) ([]ItemMetrics, error) {
	return sim.EvaluatePerItem(s.program, pw)
}

// ReplayConfig parameterizes Schedule.Replay.
type ReplayConfig struct {
	// Queries is the number of simulated queries (default 1000).
	Queries int
	// Seed drives arrivals and target selection.
	Seed int64
	// Power is the client energy model.
	Power Power
	// RangeFraction in [0,1] mixes in key-range scans (keyed trees only).
	RangeFraction float64
	// RangeSpan is the key span of each range scan (default 4).
	RangeSpan int64
}

// ReplayReport is the distributional outcome of a replay.
type ReplayReport = driver.Report

// Replay runs a synthetic query workload against the schedule — uniform
// arrival phases, popularity-weighted targets, optionally mixed with
// range scans — and reports percentile metrics that the exact Measure
// expectation cannot provide.
func (s *Schedule) Replay(cfg ReplayConfig) (ReplayReport, error) {
	return driver.Run(s.program, driver.Config{
		Queries:       cfg.Queries,
		Seed:          cfg.Seed,
		Power:         cfg.Power,
		RangeFraction: cfg.RangeFraction,
		RangeSpan:     cfg.RangeSpan,
	})
}
