package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/alphatree"
	"repro/internal/heuristic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// TreeShapeRow is one index-tree construction's end-to-end client cost
// (ablation A5): the same catalog built into differently shaped trees,
// each optimally allocated and measured in the simulator.
type TreeShapeRow struct {
	Construction string
	Fanout       int
	Depth        int
	// WPL is the weighted path length (tuning-time proxy) of the tree.
	WPL float64
	// Summary holds the simulator's expected client metrics.
	Summary sim.Summary
	// Keyed reports whether the tree supports key lookups (Huffman does
	// not — the paper's criticism of the [CYW97] skewed trees).
	Keyed bool
}

// TreeShapeConfig parameterizes A5. Zero values use a 24-item Zipf(0.9)
// catalog on 2 channels.
type TreeShapeConfig struct {
	Items    int
	Theta    float64
	Channels int
	Seed     int64
	Power    sim.Power
}

// TreeShape compares index-tree constructions — Hu–Tucker, optimal and
// greedy k-ary, and Huffman — for one catalog: how the fanout choice of
// [SV96] trades tree depth (tuning) against broadcast length and wait.
func TreeShape(cfg TreeShapeConfig) ([]TreeShapeRow, error) {
	if cfg.Items == 0 {
		cfg.Items = 24
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.9
	}
	if cfg.Channels == 0 {
		cfg.Channels = 2
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	rng := stats.NewRNG(cfg.Seed)
	z := &stats.Zipf{Theta: cfg.Theta}
	items := make([]alphatree.Item, cfg.Items)
	for i := range items {
		items[i] = alphatree.Item{
			Label:  fmt.Sprintf("K%d", i+1),
			Key:    int64(i + 1),
			Weight: z.Sample(rng),
		}
	}

	type construction struct {
		name   string
		fanout int
		build  func() (*tree.Tree, error)
	}
	constructions := []construction{
		{"hu-tucker", 2, func() (*tree.Tree, error) { return alphatree.HuTucker(items) }},
		{"optimal 3-ary", 3, func() (*tree.Tree, error) { return alphatree.OptimalKAry(items, 3) }},
		{"optimal 4-ary", 4, func() (*tree.Tree, error) { return alphatree.OptimalKAry(items, 4) }},
		{"greedy 4-ary", 4, func() (*tree.Tree, error) { return alphatree.KAry(items, 4) }},
		{"4-ary depth<=3", 4, func() (*tree.Tree, error) { return alphatree.OptimalKAryDepthLimited(items, 4, 3) }},
		{"huffman", 2, func() (*tree.Tree, error) { return alphatree.Huffman(items) }},
	}

	rows := make([]TreeShapeRow, 0, len(constructions))
	for _, c := range constructions {
		t, err := c.build()
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", c.name, err)
		}
		sum, err := measureTree(t, cfg.Channels, cfg.Power)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", c.name, err)
		}
		rows = append(rows, TreeShapeRow{
			Construction: c.name,
			Fanout:       c.fanout,
			Depth:        t.Depth(),
			WPL:          alphatree.WeightedPathLength(t) / t.TotalWeight(),
			Summary:      sum,
			Keyed:        t.Keyed(),
		})
	}
	return rows, nil
}

// measureTree allocates (sorting heuristic — the catalogs here exceed the
// exact-search size) and evaluates a tree in the simulator.
func measureTree(t *tree.Tree, channels int, pw sim.Power) (sim.Summary, error) {
	a, err := heuristic.AllocateSorted(t, channels)
	if err != nil {
		return sim.Summary{}, err
	}
	p, err := sim.Compile(a, sim.Options{})
	if err != nil {
		return sim.Summary{}, err
	}
	return sim.Evaluate(p, pw, sim.Faults{})
}

// RenderTreeShape writes the A5 table.
func RenderTreeShape(w io.Writer, rows []TreeShapeRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "construction\tfanout\tdepth\tavg probes\taccess\ttuning\tenergy\tkeyed")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%v\n",
			r.Construction, r.Fanout, r.Depth, r.WPL,
			r.Summary.AccessTime, r.Summary.TuningTime, r.Summary.Energy, r.Keyed)
	}
	return tw.Flush()
}
