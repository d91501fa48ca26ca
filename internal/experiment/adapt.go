package experiment

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AdaptRow is one (drift kind, rebuild cadence) cell of the A9 sweep.
type AdaptRow struct {
	// Drift names the demand-drift pattern.
	Drift string
	// Cadence is the rebuild period: the broadcast is re-planned every
	// Cadence periods from the previous period's observed demand (lag-1
	// staleness — a planner can only see counters it has already
	// collected). Cadence 0 never rebuilds.
	Cadence int
	// Rebuilds is how many epoch swaps actually landed on the timeline.
	Rebuilds int
	// Summary is the exact expected client cost over the whole horizon,
	// including Restarts — the descents abandoned because a swap landed
	// mid-traversal.
	Summary sim.Summary
	// HitRate is the demand-weighted fraction of lookups that found their
	// key on the air; it falls as the broadcast goes stale.
	HitRate float64
	// StaleCost is the hit-rate shortfall versus the best cadence of the
	// same drift kind, in percentage points.
	StaleCost float64
}

// AdaptConfig parameterizes the A9 adaptation sweep. Zero values run the
// default grid: a 16-key universe with 10 items on air over 3 channels,
// 6 demand periods of 48 slots, cadences {0, 1, 2, 4}.
type AdaptConfig struct {
	Universe    int
	HotSize     int
	Channels    int
	Periods     int
	PeriodSlots int
	Cadences    []int
	// Rate is the per-slot fault probability (split like the A8 sweep);
	// the default 0 isolates swap restarts from loss retries.
	Rate       float64
	Seed       int64
	Power      sim.Power
	MaxRetries int
	Workers    int
}

// AdaptSweep measures what live adaptation buys and costs: for each drift
// pattern and rebuild cadence it replays the epoch timeline a tower would
// air — each rebuild planned from the previous period's demand and
// hot-swapped at the next cycle boundary — and evaluates the exact
// expected client cost under the *current* period's demand. Staleness
// surfaces as a falling hit rate, adaptation overhead as Restarts, and
// every swap is verified to land exactly on a cycle boundary of the
// outgoing epoch: the tower never skips or truncates a broadcast cycle.
func AdaptSweep(cfg AdaptConfig) ([]AdaptRow, error) {
	if cfg.Universe == 0 {
		cfg.Universe = 16
	}
	if cfg.HotSize == 0 {
		cfg.HotSize = 10
	}
	if cfg.Channels == 0 {
		// Three channels leave root copies on channel 1 whose wrapped
		// pointers straddle cycle boundaries — the descents that actually
		// restart across a swap.
		cfg.Channels = 3
	}
	if cfg.Periods == 0 {
		cfg.Periods = 6
	}
	if cfg.PeriodSlots == 0 {
		cfg.PeriodSlots = 48
	}
	if len(cfg.Cadences) == 0 {
		cfg.Cadences = []int{0, 1, 2, 4}
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	if cfg.HotSize > cfg.Universe {
		return nil, fmt.Errorf("experiment: hot size %d exceeds universe %d", cfg.HotSize, cfg.Universe)
	}

	kinds := []workload.DriftKind{workload.ZipfShift, workload.HotspotRotate, workload.FlashCrowd}
	type cell struct {
		kind    workload.DriftKind
		cadence int
	}
	cells := make([]cell, 0, len(kinds)*len(cfg.Cadences))
	for _, k := range kinds {
		for _, c := range cfg.Cadences {
			cells = append(cells, cell{kind: k, cadence: c})
		}
	}

	rows, err := forEachTrial(cfg.Workers, len(cells), func(i int) (AdaptRow, error) {
		return adaptCell(cfg, cells[i].kind, cells[i].cadence)
	})
	if err != nil {
		return nil, err
	}

	// Staleness cost is relative to the best hit rate achieved by any
	// cadence under the same drift.
	for _, k := range kinds {
		best := 0.0
		for _, r := range rows {
			if r.Drift == k.String() && r.HitRate > best {
				best = r.HitRate
			}
		}
		for i := range rows {
			if rows[i].Drift == k.String() {
				rows[i].StaleCost = 100 * (best - rows[i].HitRate)
			}
		}
	}
	return rows, nil
}

// adaptCell replays one drift pattern at one rebuild cadence.
func adaptCell(cfg AdaptConfig, kind workload.DriftKind, cadence int) (AdaptRow, error) {
	row := AdaptRow{Drift: kind.String(), Cadence: cadence}
	if cadence < 0 {
		return row, fmt.Errorf("experiment: negative cadence %d", cadence)
	}
	demand, err := workload.Drift(workload.DriftConfig{
		Kind: kind, Universe: cfg.Universe, Periods: cfg.Periods,
	})
	if err != nil {
		return row, err
	}

	prog, err := adaptPlan(demand[0], cfg.HotSize, cfg.Channels)
	if err != nil {
		return row, fmt.Errorf("period 0: %w", err)
	}
	if prog.CycleLen() > cfg.PeriodSlots {
		return row, fmt.Errorf("experiment: cycle %d slots does not fit the %d-slot period",
			prog.CycleLen(), cfg.PeriodSlots)
	}
	tl, err := sim.NewTimeline(prog, 1)
	if err != nil {
		return row, err
	}
	epoch := uint32(1)
	for t := 1; t < cfg.Periods; t++ {
		if cadence == 0 || t%cadence != 0 {
			continue
		}
		// The planner only has the counters it collected last period.
		next, err := adaptPlan(demand[t-1], cfg.HotSize, cfg.Channels)
		if err != nil {
			return row, fmt.Errorf("period %d: %w", t, err)
		}
		epoch++
		if _, err := tl.Append(next, epoch, t*cfg.PeriodSlots); err != nil {
			return row, fmt.Errorf("period %d: %w", t, err)
		}
		row.Rebuilds++
	}
	// The acceptance invariant: every swap lands exactly at a cycle
	// boundary of the outgoing epoch, so the tower airs whole cycles only
	// and never skips a slot.
	entries := tl.Entries()
	for i := 1; i < len(entries); i++ {
		gap := entries[i].Start - entries[i-1].Start
		if gap <= 0 || gap%entries[i-1].Prog.CycleLen() != 0 {
			return row, fmt.Errorf("experiment: epoch %d swap at slot %d is not a cycle boundary of epoch %d",
				entries[i].Epoch, entries[i].Start, entries[i-1].Epoch)
		}
	}

	f := sim.Faults{MaxRetries: cfg.MaxRetries}
	if cfg.Rate > 0 {
		f.Model = fault.Model{Seed: cfg.Seed + 1, Drop: 0.7 * cfg.Rate, Corrupt: 0.3 * cfg.Rate}
	}
	// Evaluate each period's window under that period's true demand; the
	// windows are equal-length, so averaging them equally is the exact
	// horizon-wide expectation.
	periods := float64(cfg.Periods)
	for t := 0; t < cfg.Periods; t++ {
		dem := make([]sim.Demand, len(demand[t]))
		for i, it := range demand[t] {
			dem[i] = sim.Demand{Key: it.Key, Weight: it.Weight}
		}
		r, err := sim.EvaluateTimeline(tl, t*cfg.PeriodSlots, (t+1)*cfg.PeriodSlots, dem, cfg.Power, f)
		if err != nil {
			return row, fmt.Errorf("period %d: %w", t, err)
		}
		if r.Availability < 1 {
			return row, fmt.Errorf("period %d: %w", t, fault.ErrRetryBudget)
		}
		s := r.Summary
		row.Summary.ProbeWait += s.ProbeWait / periods
		row.Summary.DataWait += s.DataWait / periods
		row.Summary.AccessTime += s.AccessTime / periods
		row.Summary.TuningTime += s.TuningTime / periods
		row.Summary.Energy += s.Energy / periods
		row.Summary.Retries += s.Retries / periods
		row.Summary.Restarts += s.Restarts / periods
		row.HitRate += r.HitRate / periods
	}
	return row, nil
}

// adaptPlan turns one period's demand snapshot into the broadcast program
// a tower would stage: the HotSize most-demanded keys, indexed by the
// optimal Hu–Tucker tree, allocated over the channels, compiled with root
// copies filling the first channel's idle slots.
func adaptPlan(demand []workload.Item, hotSize, channels int) (*sim.Program, error) {
	hot := append([]workload.Item(nil), demand...)
	sort.SliceStable(hot, func(i, j int) bool { return hot[i].Weight > hot[j].Weight })
	if len(hot) > hotSize {
		hot = hot[:hotSize]
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Key < hot[j].Key })
	items := make([]alphatree.Item, len(hot))
	for i, it := range hot {
		items[i] = alphatree.Item{Label: it.Label, Key: it.Key, Weight: it.Weight}
	}
	tr, err := alphatree.HuTucker(items)
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(tr, core.Config{Channels: channels})
	if err != nil {
		return nil, err
	}
	return sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
}

// RenderAdapt writes the A9 table.
func RenderAdapt(w io.Writer, rows []AdaptRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "drift\tcadence\trebuilds\taccess\ttuning\trestarts\tretries\thit rate\tstale cost")
	for _, r := range rows {
		cad := "never"
		if r.Cadence > 0 {
			cad = fmt.Sprintf("%d", r.Cadence)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\t%.4f\t%.3f\t%.3f\t%+.1fpp\n",
			r.Drift, cad, r.Rebuilds, r.Summary.AccessTime, r.Summary.TuningTime,
			r.Summary.Restarts, r.Summary.Retries, r.HitRate, -r.StaleCost)
	}
	return tw.Flush()
}
