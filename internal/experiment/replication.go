package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tree"
)

// ReplicationRow is one comb-spine length's result in the A6 sweep:
// client metrics with and without root copies filling the empty
// first-channel slots the spine leaves behind.
type ReplicationRow struct {
	Spine      int
	RootCopies int
	Plain      sim.Summary
	Replicated sim.Summary
	// ProbeCut and EnergyCut are the relative improvements in percent.
	ProbeCut, EnergyCut float64
}

// ReplicationConfig parameterizes A6. Zero values sweep spine lengths
// 2, 4, 6 and 8 on two channels.
type ReplicationConfig struct {
	Spines []int
	Power  sim.Power
	Seed   int64 // retained for interface symmetry; the family is deterministic
}

// combTree builds the comb family: the root has one data child and an
// index spine of the given length ending in two data leaves. On two
// channels the optimal allocation sends the spine down channel 2,
// leaving one empty channel-1 slot per spine level — exactly the space
// the paper's replication idea wants to reuse.
func combTree(spine int) (*tree.Tree, error) {
	b := tree.NewBuilder()
	root := b.AddRoot("R")
	b.AddData(root, "hot", 50)
	cur := root
	for i := 1; i <= spine; i++ {
		cur = b.AddIndex(cur, fmt.Sprintf("S%d", i))
	}
	b.AddData(cur, "warm", 20)
	b.AddData(cur, "cold", 5)
	return b.Build()
}

// ReplicationSweep quantifies the paper's index-replication future-work
// direction: filling otherwise-empty first-channel slots with root copies
// cuts the probe wait and one synchronization read per query, with the
// gain growing in the number of reusable slots.
func ReplicationSweep(cfg ReplicationConfig) ([]ReplicationRow, error) {
	if len(cfg.Spines) == 0 {
		cfg.Spines = []int{2, 4, 6, 8}
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	rows := make([]ReplicationRow, 0, len(cfg.Spines))
	for _, spine := range cfg.Spines {
		tr, err := combTree(spine)
		if err != nil {
			return nil, err
		}
		res, err := topo.Exact(tr, 2)
		if err != nil {
			return nil, err
		}
		plainProg, err := sim.Compile(res.Alloc, sim.Options{})
		if err != nil {
			return nil, err
		}
		replProg, err := sim.Compile(res.Alloc, sim.Options{FillWithRootCopies: true})
		if err != nil {
			return nil, err
		}
		copies := 0
		for s := 1; s <= replProg.CycleLen(); s++ {
			if replProg.BucketAt(1, s).RootCopy {
				copies++
			}
		}
		plain, err := sim.Evaluate(plainProg, cfg.Power, sim.Faults{})
		if err != nil {
			return nil, err
		}
		repl, err := sim.Evaluate(replProg, cfg.Power, sim.Faults{})
		if err != nil {
			return nil, err
		}
		row := ReplicationRow{Spine: spine, RootCopies: copies, Plain: plain, Replicated: repl}
		if plain.ProbeWait > 0 {
			row.ProbeCut = 100 * (1 - repl.ProbeWait/plain.ProbeWait)
		}
		if plain.Energy > 0 {
			row.EnergyCut = 100 * (1 - repl.Energy/plain.Energy)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderReplication writes the A6 table.
func RenderReplication(w io.Writer, rows []ReplicationRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "spine\troot copies\tprobe\tprobe+copies\tprobe cut\tenergy\tenergy+copies\tenergy cut")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.1f%%\t%.3f\t%.3f\t%.1f%%\n",
			r.Spine, r.RootCopies, r.Plain.ProbeWait, r.Replicated.ProbeWait, r.ProbeCut,
			r.Plain.Energy, r.Replicated.Energy, r.EnergyCut)
	}
	return tw.Flush()
}
