package experiment

import (
	"bytes"
	"fmt"
)

// GoldenTable is one analytic sweep rendered at a small fixed
// configuration. TestGoldenExperiments compares each against the file
// testdata/golden/<Name>.txt, which `go run ./internal/experiment/testdata/gen`
// regenerates; the pins catch any change to the numbers the analytic
// client protocol produces.
type GoldenTable struct {
	Name string
	Text string
}

// GoldenTables renders the loss, adapt, outage, restart and batch sweeps
// at configurations small enough to run in well under a second, each
// still exercising its fault class: lost reads, epoch restarts, channel
// failovers with survivor replans, station reconnects and batch plans.
func GoldenTables() ([]GoldenTable, error) {
	steps := []struct {
		name   string
		render func(*bytes.Buffer) error
	}{
		{"loss", func(b *bytes.Buffer) error {
			rows, err := LossSweep(LossConfig{Trials: 3, Seed: 5, Items: 8, Workers: 1})
			if err != nil {
				return err
			}
			return RenderLoss(b, rows)
		}},
		{"adapt", func(b *bytes.Buffer) error {
			rows, err := AdaptSweep(AdaptConfig{
				Universe: 16, HotSize: 10, Channels: 3, Periods: 4, PeriodSlots: 48,
				Cadences: []int{0, 1, 2}, Rate: 0.1, Seed: 3, MaxRetries: 64, Workers: 1,
			})
			if err != nil {
				return err
			}
			return RenderAdapt(b, rows)
		}},
		{"outage", func(b *bytes.Buffer) error {
			rows, err := OutageSweep(OutageSweepConfig{Trials: 2, Seed: 5, Workers: 1})
			if err != nil {
				return err
			}
			return RenderOutage(b, rows)
		}},
		{"restart", func(b *bytes.Buffer) error {
			rows, replay, err := RestartSweep(RestartSweepConfig{Trials: 2, Seed: 5, Workers: 1})
			if err != nil {
				return err
			}
			return RenderRestart(b, rows, replay)
		}},
		{"batch", func(b *bytes.Buffer) error {
			points, err := BatchSweep(BatchConfig{Ks: []int{2, 4}, Channels: []int{1, 2}, Trials: 2, Seed: 3, Workers: 1})
			if err != nil {
				return err
			}
			return RenderBatch(b, points)
		}},
	}
	out := make([]GoldenTable, len(steps))
	for i, s := range steps {
		var b bytes.Buffer
		if err := s.render(&b); err != nil {
			return nil, fmt.Errorf("golden %s: %w", s.name, err)
		}
		out[i] = GoldenTable{Name: s.name, Text: b.String()}
	}
	return out, nil
}
