package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/tree"
)

// planFor hand-builds a single-antenna plan reading the given data nodes
// at their first airing at or after arrival, in first-airing order, one
// slot of progress between reads — the minimal well-formed plan for
// white-box tests (internal/retrieval owns the real planners).
func planFor(p *Program, arrival int, targets []tree.ID) *BatchPlan {
	plan := &BatchPlan{Arrival: arrival, Antennas: 1, SwitchCost: 1}
	at := arrival
	for _, id := range targets {
		pos := p.slotOf[id]
		slot := at + (pos.Slot-1-at%p.cycleLen+p.cycleLen)%p.cycleLen
		plan.Steps = append(plan.Steps, BatchStep{
			Channel: pos.Channel, Slot: slot, Node: id, Label: p.t.Label(id),
		})
		at = slot + 1
	}
	return plan
}

// airingOrder sorts data nodes by their first airing after arrival 0 so
// planFor's sequential schedule is feasible without cycle spills.
func airingOrder(p *Program, n int) []tree.ID {
	ids := append([]tree.ID(nil), p.t.DataIDs()...)
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && p.slotOf[ids[j]].Slot < p.slotOf[ids[j-1]].Slot; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	if n < len(ids) {
		ids = ids[:n]
	}
	return ids
}

func TestQueryBatchPerfectChannel(t *testing.T) {
	p := keyedProgram(t, 10, 2, 3)
	targets := airingOrder(p, 4)
	plan := planFor(p, 0, targets)
	m, err := p.QueryBatch(plan, testPower, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TuningTime != len(targets) {
		t.Errorf("tuning %d != %d reads", m.TuningTime, len(targets))
	}
	if m.Retries != 0 || m.Restarts != 0 || m.Failovers != 0 {
		t.Errorf("perfect channel charged recovery: %+v", m)
	}
	first := plan.Steps[0].Slot
	last := plan.Steps[len(plan.Steps)-1].Slot
	if m.ProbeWait != first || m.DataWait != last-first+1 || m.AccessTime != last+1 {
		t.Errorf("waits (%d,%d,%d) disagree with schedule [%d,%d]",
			m.ProbeWait, m.DataWait, m.AccessTime, first, last)
	}
}

// TestQueryBatchRetriesPushLaterReads pins the cyclic catch-up rule: a
// read that spills into later cycles delays every subsequent read on the
// same antenna past it, exactly like the netcast server would.
func TestQueryBatchRetriesPushLaterReads(t *testing.T) {
	p := keyedProgram(t, 10, 2, 3)
	targets := airingOrder(p, 3)
	plan := planFor(p, 0, targets)
	fc := Faults{Model: fault.Model{Seed: 7, Drop: 0.4}, MaxRetries: 64}
	m, err := p.QueryBatch(plan, testPower, fc)
	if err != nil {
		t.Fatal(err)
	}
	if m.TuningTime != len(targets)+m.Retries {
		t.Errorf("tuning %d != %d + %d retries", m.TuningTime, len(targets), m.Retries)
	}
	if m.Retries > 0 {
		wantMin := plan.Makespan() + m.Retries*p.CycleLen() - (p.CycleLen()-1)*m.Retries
		if m.AccessTime < wantMin {
			t.Errorf("access %d below any retried schedule (retries %d)", m.AccessTime, m.Retries)
		}
	}
	// The same plan under the same seed replays byte-identically.
	m2, err := p.QueryBatch(plan, testPower, fc)
	if err != nil {
		t.Fatal(err)
	}
	if m != m2 {
		t.Errorf("replay diverged: %+v != %+v", m, m2)
	}
}

func TestQueryBatchRejectsBadPlans(t *testing.T) {
	p := keyedProgram(t, 10, 2, 3)
	targets := airingOrder(p, 2)
	good := planFor(p, 0, targets)
	cases := []struct {
		name   string
		mutate func(*BatchPlan)
	}{
		{"nil steps", func(b *BatchPlan) { b.Steps = nil }},
		{"negative arrival", func(b *BatchPlan) { b.Arrival = -1; b.Steps[0].Slot = 0 }},
		{"zero antennas", func(b *BatchPlan) { b.Antennas = 0 }},
		{"channel out of range", func(b *BatchPlan) { b.Steps[0].Channel = p.Channels() + 1 }},
		{"antenna out of range", func(b *BatchPlan) { b.Steps[0].Antenna = 1 }},
		{"slot before arrival", func(b *BatchPlan) { b.Arrival = b.Steps[0].Slot + 1 }},
		{"non-monotone", func(b *BatchPlan) { b.Steps[1].Slot = b.Steps[0].Slot }},
		{"wrong node", func(b *BatchPlan) { b.Steps[0].Slot++ }},
	}
	for _, c := range cases {
		plan := &BatchPlan{}
		*plan = *good
		plan.Steps = append([]BatchStep(nil), good.Steps...)
		c.mutate(plan)
		if _, err := p.QueryBatch(plan, testPower, Faults{}); !errors.Is(err, ErrBadPlan) {
			t.Errorf("%s: err = %v, want ErrBadPlan", c.name, err)
		}
	}
	if _, err := p.QueryBatch(nil, testPower, Faults{}); !errors.Is(err, ErrBadPlan) {
		t.Errorf("nil plan: err = %v, want ErrBadPlan", err)
	}
	// A station crash is modelled for one radio, the plans the socket
	// client runs; a multi-antenna plan has no socket twin and refuses a
	// downtime schedule rather than ignoring it.
	crash := Faults{Downtimes: fault.Downtimes{{StartSlot: 1, EndSlot: 3}}}
	if m, err := p.QueryBatch(good, testPower, crash); err != nil || m.Reconnects == 0 {
		t.Errorf("single-antenna batch across a crash: %+v, %v; want a reconnect and no error", m, err)
	}
	two := *good
	two.Antennas = 2
	if _, err := p.QueryBatch(&two, testPower, crash); err == nil {
		t.Error("multi-antenna batch accepted a downtime schedule it cannot model")
	}
}

// staticPlanner adapts planFor to the BatchPlanner interface for
// EvaluateBatch tests.
type staticPlanner struct{}

func (staticPlanner) PlanBatch(p *Program, arrival int, targets []tree.ID) (*BatchPlan, error) {
	ordered := append([]tree.ID(nil), targets...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0; j-- {
			a0 := arrival + (p.slotOf[ordered[j]].Slot-1-arrival%p.cycleLen+p.cycleLen)%p.cycleLen
			a1 := arrival + (p.slotOf[ordered[j-1]].Slot-1-arrival%p.cycleLen+p.cycleLen)%p.cycleLen
			if a0 < a1 {
				ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
			}
		}
	}
	return planFor(p, arrival, ordered), nil
}

func TestEvaluateBatchFoldsEveryArrival(t *testing.T) {
	p := keyedProgram(t, 10, 2, 3)
	targets := airingOrder(p, 3)
	s, err := EvaluateBatch(p, targets, testPower, Faults{}, staticPlanner{})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute by hand through the same fold; the two must be
	// bit-identical.
	var ms []Metrics
	for a := 0; a < p.CycleLen(); a++ {
		plan, err := staticPlanner{}.PlanBatch(p, a, targets)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.QueryBatch(plan, testPower, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	if want := FoldBatch(ms); s != want {
		t.Errorf("EvaluateBatch = %+v, want %+v", s, want)
	}
	if math.Abs(s.TuningTime-float64(len(targets))) > 1e-9 {
		t.Errorf("expected tuning %v != batch size %d on a perfect channel", s.TuningTime, len(targets))
	}
}

func TestFoldBatchEmpty(t *testing.T) {
	if s := FoldBatch(nil); s != (Summary{}) {
		t.Errorf("FoldBatch(nil) = %+v, want zero", s)
	}
}
