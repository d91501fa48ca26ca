package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// A11 — batch retrieval planning. The paper's allocation minimizes the
// single-item expected wait; this experiment measures what a multi-item
// client gains from conflict-aware tune scheduling: per-key access time
// of the exact DP and the greedy planner versus K independent
// single-key queries, across batch size and channel count. Every trial
// asserts the quality chain exact ≤ greedy ≤ sequential — a greedy
// schedule beating the DP or losing to planless retrieval would mean a
// planner bug, so the experiment doubles as a correctness harness.

// BatchPoint is one (batch size, channel count) cell of the A11 sweep,
// all times in slots averaged per key over trials and arrival phases.
type BatchPoint struct {
	K        int
	Channels int
	// Exact, Greedy and Sequential are mean per-key access times of the
	// exact DP plan, the greedy plan, and K back-to-back single-key
	// queries.
	Exact, Greedy, Sequential float64
	// Conflicts and ExtraCycles are the mean per-batch conflict count
	// and whole cycles lost, from the exact plans.
	Conflicts, ExtraCycles float64
	// Speedup is Sequential / Exact: how many times faster the planned
	// batch retrieves its keys than the planless client.
	Speedup float64
}

// BatchConfig parameterizes the A11 sweep. Zero values sweep batches of
// 2..8 keys over 1..3 channels, 6 trials of 12-item catalogs, 4 arrival
// phases per trial.
type BatchConfig struct {
	Ks       []int
	Channels []int
	Items    int
	Trials   int
	// Arrivals is how many arrival phases per trial are averaged (evenly
	// spread over the cycle).
	Arrivals int
	Seed     int64
	Power    sim.Power
	Workers  int
}

// BatchSweep runs A11: for every (K, channels) cell, seeded random
// catalogs are solved and compiled, K distinct data nodes drawn, and
// each arrival phase planned exactly, greedily, and retrieved
// sequentially as a baseline. Any trial violating exact ≤ greedy ≤
// sequential fails the sweep.
func BatchSweep(cfg BatchConfig) ([]BatchPoint, error) {
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{2, 4, 6, 8}
	}
	if len(cfg.Channels) == 0 {
		cfg.Channels = []int{1, 2, 3}
	}
	if cfg.Items == 0 {
		cfg.Items = 12
	}
	if cfg.Trials == 0 {
		cfg.Trials = 6
	}
	if cfg.Arrivals == 0 {
		cfg.Arrivals = 4
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}

	type cell struct{ K, channels int }
	cells := make([]cell, 0, len(cfg.Ks)*len(cfg.Channels))
	for _, k := range cfg.Channels {
		for _, K := range cfg.Ks {
			cells = append(cells, cell{K, k})
		}
	}

	// One parallel unit per (cell, trial); each is a pure function of its
	// index, so any worker count reduces to the serial result exactly.
	type acc struct {
		exact, greedy, sequential float64
		conflicts, extraCycles    float64
	}
	trials, err := forEachTrial(cfg.Workers, len(cells)*cfg.Trials, func(i int) (acc, error) {
		c := cells[i/cfg.Trials]
		trial := i % cfg.Trials
		rng := stats.NewRNG(cfg.Seed + int64(i)*7919)
		items := make([]alphatree.Item, cfg.Items)
		for j := range items {
			items[j] = alphatree.Item{
				Label:  fmt.Sprintf("i%02d", j),
				Key:    int64(j + 1),
				Weight: float64(1 + rng.Intn(100)),
			}
		}
		tr, err := alphatree.HuTucker(items)
		if err != nil {
			return acc{}, err
		}
		sol, err := core.Solve(tr, core.Config{Channels: c.channels})
		if err != nil {
			return acc{}, err
		}
		prog, err := sim.Compile(sol.Alloc, sim.Options{})
		if err != nil {
			return acc{}, err
		}
		targets := append([]tree.ID(nil), prog.Tree().DataIDs()...)
		rng.Shuffle(len(targets), func(a, b int) { targets[a], targets[b] = targets[b], targets[a] })
		targets = targets[:c.K]
		planner := retrieval.New(retrieval.Config{MaxExactK: c.K})

		var out acc
		L := prog.CycleLen()
		for ai := 0; ai < cfg.Arrivals; ai++ {
			arrival := ai * L / cfg.Arrivals
			exact, err := planner.PlanExact(prog, arrival, targets)
			if err != nil {
				return acc{}, err
			}
			greedy, err := planner.PlanGreedy(prog, arrival, targets)
			if err != nil {
				return acc{}, err
			}
			mExact, err := prog.QueryBatch(exact, cfg.Power, sim.Faults{})
			if err != nil {
				return acc{}, err
			}
			mGreedy, err := prog.QueryBatch(greedy, cfg.Power, sim.Faults{})
			if err != nil {
				return acc{}, err
			}
			mSeq, err := retrieval.SequentialBaseline(prog, arrival, targets, cfg.Power, sim.Faults{})
			if err != nil {
				return acc{}, err
			}
			// The quality chain is an invariant, not a trend: a violation
			// on any seeded trial is a planner bug.
			if mExact.AccessTime > mGreedy.AccessTime {
				return acc{}, fmt.Errorf("K=%d k=%d trial %d arrival %d: exact %d > greedy %d",
					c.K, c.channels, trial, arrival, mExact.AccessTime, mGreedy.AccessTime)
			}
			if mGreedy.AccessTime > mSeq.AccessTime {
				return acc{}, fmt.Errorf("K=%d k=%d trial %d arrival %d: greedy %d > sequential %d",
					c.K, c.channels, trial, arrival, mGreedy.AccessTime, mSeq.AccessTime)
			}
			n := float64(cfg.Arrivals)
			out.exact += float64(mExact.AccessTime) / n
			out.greedy += float64(mGreedy.AccessTime) / n
			out.sequential += float64(mSeq.AccessTime) / n
			out.conflicts += float64(exact.Conflicts) / n
			out.extraCycles += float64(exact.ExtraCycles) / n
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]BatchPoint, len(cells))
	for ci, c := range cells {
		pt := BatchPoint{K: c.K, Channels: c.channels}
		for trial := 0; trial < cfg.Trials; trial++ {
			a := trials[ci*cfg.Trials+trial]
			n := float64(cfg.Trials) * float64(c.K)
			pt.Exact += a.exact / n
			pt.Greedy += a.greedy / n
			pt.Sequential += a.sequential / n
			pt.Conflicts += a.conflicts / float64(cfg.Trials)
			pt.ExtraCycles += a.extraCycles / float64(cfg.Trials)
		}
		if pt.Exact > 0 {
			pt.Speedup = pt.Sequential / pt.Exact
		}
		points[ci] = pt
	}
	return points, nil
}

// RenderBatch writes the A11 table.
func RenderBatch(w io.Writer, points []BatchPoint) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "K\tchannels\texact/key\tgreedy/key\tsequential/key\tconflicts\textra cycles\tspeedup")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.2fx\n",
			p.K, p.Channels, p.Exact, p.Greedy, p.Sequential, p.Conflicts, p.ExtraCycles, p.Speedup)
	}
	return tw.Flush()
}
