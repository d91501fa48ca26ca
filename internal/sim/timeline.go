package sim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// This file is the analytic twin of a broadcast tower's air: a Timeline
// concatenates epoch-versioned programs along the absolute slot axis,
// with each swap landing exactly at a cycle boundary of the outgoing
// epoch (the same invariant the netcast server enforces). Heard under
// the Faults schedules it is the analytic Medium, and Query and
// QueryRange drive the one client protocol (protocol.go) across it.

// Entry is one epoch of a broadcast timeline: the program that is on the
// air from absolute slot Start until the next entry's Start.
type Entry struct {
	// Epoch is the program generation stamped into every bucket on the
	// wire. Monotonically increasing along the timeline.
	Epoch uint32
	// Prog is the compiled program broadcast during this epoch.
	Prog *Program
	// Start is the absolute slot at which this epoch takes the air; it is
	// always a cycle boundary of the preceding epoch.
	Start int
}

// Timeline is a broadcast schedule over absolute time: a sequence of
// epochs, each serving its program cyclically until the next swap.
type Timeline struct {
	entries []Entry
}

// NewTimeline starts a timeline broadcasting p as the given epoch from
// absolute slot 0.
func NewTimeline(p *Program, epoch uint32) (*Timeline, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	return &Timeline{entries: []Entry{{Epoch: epoch, Prog: p, Start: 0}}}, nil
}

// Append stages the next epoch: p takes the air at the first cycle
// boundary of the current last epoch at or after absolute slot notBefore
// (the slot at which the rebuilt program became available). It returns
// the swap slot. The channel count must not change across epochs — the
// client's tuner has no way to learn of new channels mid-flight — and
// epochs must strictly increase.
func (tl *Timeline) Append(p *Program, epoch uint32, notBefore int) (int, error) {
	last := &tl.entries[len(tl.entries)-1]
	if p == nil {
		return 0, fmt.Errorf("sim: nil program")
	}
	if p.Channels() != last.Prog.Channels() {
		return 0, fmt.Errorf("sim: epoch %d has %d channels, timeline has %d",
			epoch, p.Channels(), last.Prog.Channels())
	}
	if epoch <= last.Epoch {
		return 0, fmt.Errorf("sim: epoch %d does not advance %d", epoch, last.Epoch)
	}
	if notBefore <= last.Start {
		return 0, fmt.Errorf("sim: epoch %d staged at slot %d before its predecessor aired (start %d)",
			epoch, notBefore, last.Start)
	}
	L := last.Prog.CycleLen()
	start := last.Start + (notBefore-last.Start+L-1)/L*L
	tl.entries = append(tl.entries, Entry{Epoch: epoch, Prog: p, Start: start})
	return start, nil
}

// Entries returns the timeline's epochs in air order.
func (tl *Timeline) Entries() []Entry { return tl.entries }

// EntryAt returns the epoch on the air at absolute slot t.
func (tl *Timeline) EntryAt(t int) Entry {
	i := len(tl.entries) - 1
	for i > 0 && tl.entries[i].Start > t {
		i--
	}
	return tl.entries[i]
}

// CycleSlot maps absolute slot t to the on-air epoch and its 1-based
// cycle slot.
func (tl *Timeline) CycleSlot(t int) (Entry, int) {
	e := tl.EntryAt(t)
	return e, (t-e.Start)%e.Prog.CycleLen() + 1
}

// bucketAt reads the bucket on the air at (ch, t).
func (tl *Timeline) bucketAt(ch, t int) (Entry, *Bucket) {
	e, cs := tl.CycleSlot(t)
	return e, &e.Prog.buckets[ch-1][cs-1]
}

// air is the analytic medium: a Timeline of epochs heard by one radio
// under the Faults schedules. It owns what the socket leaves to the
// tower: the catch-up rule, dark channels (Outages.DarkAt), the loss
// model (Model.At) and station crashes (Downtimes.KillIn and DownAt).
type air struct {
	tl        Timeline
	model     fault.Model
	outages   fault.Outages
	downtimes fault.Downtimes
	// now is the slot the radio last heard; born is the slot its
	// connection was established (-1: before the broadcast); up is the
	// EndSlot of the crash that last dropped it.
	now, born, up int
}

// startAir readies the session for a query on the analytic air of the
// given epochs.
func (s *session) startAir(entries []Entry, f *Faults, arrival int) {
	s.start(f, entries[0].Prog.k, arrival)
	s.air.tl.entries = entries
	s.air.model, s.air.outages, s.air.downtimes = f.Model, f.Outages, f.Downtimes
	s.air.now, s.air.born = arrival-1, -1
}

// Read serves (ch, req) at req, or at its next cyclic occurrence — in
// the cycle length of the epoch that aired it — when the radio has
// already passed req. A crash between the connection's birth and that
// slot drops the connection before any frame arrives.
func (a *air) Read(ch, req int) (int, Frame, Outcome, error) {
	slot := req
	for slot <= a.now {
		slot += a.tl.EntryAt(slot).Prog.cycleLen
	}
	if win, ok := a.downtimes.KillIn(a.born, slot); ok {
		a.up = win.EndSlot
		return 0, Frame{}, Dropped, nil
	}
	a.now = slot
	if a.outages.DarkAt(ch, slot) {
		return slot, Frame{}, Lost, nil
	}
	switch a.model.At(ch, slot) {
	case fault.OK, fault.Stall: // a stall delays wall-clock delivery, never the slot clock
		e, b := a.tl.bucketAt(ch, slot)
		return slot, Frame{b, e.Epoch, e.Prog.RootChannel()}, Heard, nil
	}
	return slot, Frame{}, Lost, nil
}

// Redial accepts a connection once the crash that dropped the last one
// is over and no other window covers slot.
func (a *air) Redial(slot int) bool {
	if slot < a.up || a.downtimes.DownAt(slot) {
		return false
	}
	a.born = slot
	a.now = max(a.now, slot-1)
	return true
}

// check rejects arguments no query over the timeline can run with.
func (tl *Timeline) check(arrival int, f *Faults) error {
	if arrival < 0 {
		return fmt.Errorf("sim: negative arrival %d", arrival)
	}
	if err := f.Downtimes.Validate(); err != nil {
		return err
	}
	for _, e := range tl.entries {
		if !e.Prog.t.Keyed() {
			return fmt.Errorf("sim: epoch %d tree is not keyed", e.Epoch)
		}
	}
	return nil
}

// Query retrieves the data item with the given key from the timeline,
// arriving at the given absolute slot, under the given faults; see walk
// for the protocol. found is false when the key is absent from the tree
// the descent completed in. On failure the partial metrics are returned
// with the error, which wraps fault.ErrRetryBudget when the shared
// budget ran out.
func (tl *Timeline) Query(arrival int, key int64, pw Power, f Faults) (Metrics, bool, error) {
	if err := tl.check(arrival, &f); err != nil {
		return Metrics{}, false, err
	}
	return query(tl.entries, arrival, targetNode{key: key}, pw, &f)
}

// QueryRange retrieves every data item with a key in [lo, hi] from the
// timeline under the given faults; see scan for the protocol.
func (tl *Timeline) QueryRange(arrival int, lo, hi int64, pw Power, f Faults) (RangeResult, error) {
	if err := tl.check(arrival, &f); err != nil {
		return RangeResult{}, err
	}
	if lo > hi {
		return RangeResult{}, fmt.Errorf("sim: empty range [%d, %d]", lo, hi)
	}
	return scan(tl.entries, arrival, lo, hi, pw, &f)
}

// Demand is one key's request weight in a timeline evaluation.
type Demand struct {
	Key    int64
	Weight float64
}

// Report is the outcome of a timeline evaluation. Queries that exhaust
// the retry budget are excluded from the cost averages — Summary is the
// conditional mean over completed queries — and surface in Availability
// instead.
type Report struct {
	// Summary is the weighted-average cost of the queries that completed.
	Summary Summary
	// Availability is the weighted fraction of queries that completed
	// (did not end in fault.ErrRetryBudget).
	Availability float64
	// HitRate is the weighted fraction of completed queries that found
	// their key; it drops below 1 exactly when the program on the air is
	// stale against the demand.
	HitRate float64
}

// EvaluateTimeline computes the expected client cost of the timeline
// under the given faults over the arrival window [lo, hi): a query
// arrives uniformly at every slot in the window and requests each
// demanded key with probability proportional to its weight. The window
// is in absolute slots because swaps, outages and crashes are
// absolute-time events. All averages are exact sums, not samples.
func EvaluateTimeline(tl *Timeline, lo, hi int, demand []Demand, pw Power, f Faults) (Report, error) {
	var r Report
	if lo < 0 || hi <= lo {
		return r, fmt.Errorf("sim: bad arrival window [%d, %d)", lo, hi)
	}
	var total float64
	for _, d := range demand {
		if d.Weight < 0 {
			return r, fmt.Errorf("sim: negative weight %v for key %d", d.Weight, d.Key)
		}
		total += d.Weight
	}
	if total == 0 {
		return r, fmt.Errorf("sim: zero total demand")
	}
	var completed, failed, hits float64
	for _, d := range demand {
		u := d.Weight / total / float64(hi-lo)
		for a := lo; a < hi; a++ {
			m, found, err := tl.Query(a, d.Key, pw, f)
			if errors.Is(err, fault.ErrRetryBudget) {
				failed += u
				continue
			}
			if err != nil {
				return r, fmt.Errorf("sim: key %d arrival %d: %w", d.Key, a, err)
			}
			completed += u
			r.Summary.add(m, u)
			if found {
				hits += u
			}
		}
	}
	r.Availability = completed / (completed + failed)
	if completed > 0 {
		r.Summary.scale(1 / completed)
		r.HitRate = hits / completed
	}
	return r, nil
}
