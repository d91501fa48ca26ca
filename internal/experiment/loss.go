package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LossRow is one loss rate's averaged client metrics in the A8 sweep.
type LossRow struct {
	// Rate is the total per-slot fault probability, split 70% frame loss
	// and 30% bit corruption.
	Rate          float64
	Drop, Corrupt float64
	// Summary is the exact expected client cost averaged over trials.
	Summary sim.Summary
	// AccessPenalty and EnergyPenalty are the relative degradations in
	// percent versus the lossless run of the same trials.
	AccessPenalty, EnergyPenalty float64
}

// LossConfig parameterizes the lossy-channel sweep. Zero values run 20
// trials of 12-item catalogs on 2 channels over the default rate grid.
type LossConfig struct {
	Rates      []float64
	Items      int
	Channels   int
	Trials     int
	Seed       int64
	Power      sim.Power
	Workers    int
	MaxRetries int
}

// LossSweep quantifies fault-tolerance end to end: broadcast schedules
// are evaluated under the seeded lossy-channel model at increasing fault
// rates, measuring how retries inflate access time, tuning time and
// energy. Rate 0 doubles as the correctness anchor — it must match the
// perfect-channel evaluation exactly.
func LossSweep(cfg LossConfig) ([]LossRow, error) {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5}
	}
	if cfg.Items == 0 {
		cfg.Items = 12
	}
	if cfg.Channels == 0 {
		cfg.Channels = 2
	}
	if cfg.Trials == 0 {
		cfg.Trials = 20
	}
	if cfg.Power == (sim.Power{}) {
		cfg.Power = sim.Power{Active: 1, Doze: 0.05}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 64
	}

	// Each trial is a pure function of its index: a fresh random catalog
	// is solved once and evaluated at every rate under a trial-specific
	// fault seed, so parallel runs reduce to the serial result exactly.
	trials, err := forEachTrial(cfg.Workers, cfg.Trials, func(trial int) ([]sim.Summary, error) {
		rng := stats.NewRNG(cfg.Seed + int64(trial)*7919)
		items := make([]alphatree.Item, cfg.Items)
		for i := range items {
			items[i] = alphatree.Item{
				Label:  fmt.Sprintf("i%02d", i),
				Key:    int64(i + 1),
				Weight: float64(1 + rng.Intn(100)),
			}
		}
		tr, err := alphatree.HuTucker(items)
		if err != nil {
			return nil, err
		}
		sol, err := core.Solve(tr, core.Config{Channels: cfg.Channels})
		if err != nil {
			return nil, err
		}
		prog, err := sim.Compile(sol.Alloc, sim.Options{})
		if err != nil {
			return nil, err
		}
		out := make([]sim.Summary, len(cfg.Rates))
		for ri, rate := range cfg.Rates {
			f := sim.Faults{
				Model: fault.Model{
					Seed:    cfg.Seed + int64(trial)*104729 + int64(ri)*7919 + 1,
					Drop:    0.7 * rate,
					Corrupt: 0.3 * rate,
				},
				MaxRetries: cfg.MaxRetries,
			}
			s, err := sim.Evaluate(prog, cfg.Power, f)
			if err != nil {
				return nil, fmt.Errorf("trial %d rate %.2f: %w", trial, rate, err)
			}
			out[ri] = s
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]LossRow, len(cfg.Rates))
	for ri, rate := range cfg.Rates {
		row := LossRow{Rate: rate, Drop: 0.7 * rate, Corrupt: 0.3 * rate}
		for _, tr := range trials {
			s := tr[ri]
			row.Summary.ProbeWait += s.ProbeWait
			row.Summary.DataWait += s.DataWait
			row.Summary.AccessTime += s.AccessTime
			row.Summary.TuningTime += s.TuningTime
			row.Summary.Energy += s.Energy
			row.Summary.Retries += s.Retries
		}
		n := float64(len(trials))
		row.Summary.ProbeWait /= n
		row.Summary.DataWait /= n
		row.Summary.AccessTime /= n
		row.Summary.TuningTime /= n
		row.Summary.Energy /= n
		row.Summary.Retries /= n
		rows[ri] = row
	}
	base := rows[0].Summary
	for i := range rows {
		if base.AccessTime > 0 {
			rows[i].AccessPenalty = 100 * (rows[i].Summary.AccessTime/base.AccessTime - 1)
		}
		if base.Energy > 0 {
			rows[i].EnergyPenalty = 100 * (rows[i].Summary.Energy/base.Energy - 1)
		}
	}
	return rows, nil
}

// RenderLoss writes the A8 table.
func RenderLoss(w io.Writer, rows []LossRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "rate\tdrop\tcorrupt\taccess\taccess pen.\ttuning\tretries\tenergy\tenergy pen.")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.3f\t%+.1f%%\t%.3f\t%.3f\t%.3f\t%+.1f%%\n",
			r.Rate, r.Drop, r.Corrupt, r.Summary.AccessTime, r.AccessPenalty,
			r.Summary.TuningTime, r.Summary.Retries, r.Summary.Energy, r.EnergyPenalty)
	}
	return tw.Flush()
}
