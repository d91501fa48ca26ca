package sim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// This file is the one client protocol: one read step, one probe, one
// point walk, one range scan and one batch executor, run over a Medium.
// Two media implement it: the analytic air (a Timeline heard under the
// Faults schedules, timeline.go) and the netcast socket. The protocol
// routes only on what both carry — the epoch and root-channel stamps, the
// root flag, NextCycle, child pointers with their key ranges, and a data
// bucket's key and label — so the twin and the tower report
// byte-identical Metrics under identical seeds and schedules by
// construction. Every recovery — a lost read (Retries), an epoch swap
// mid-descent (Restarts), a dead channel (Failovers) and a crashed
// station (Reconnects) — is charged against one budget:
// Retries + Restarts + Failovers + Reconnects ≤ MaxRetries, and
// exhausting it is terminal with fault.ErrRetryBudget.

// DefaultMaxRetries is the per-query recovery budget when Faults does
// not set one. It bounds how many lost cycles a client will chase before
// giving up with fault.ErrRetryBudget.
const DefaultMaxRetries = 32

// DefaultDeadAir is the customary consecutive-unusable-read threshold
// for declaring a channel dead. Three reads separate a dead channel from
// an unlucky run on a merely lossy one at any drop rate the experiments
// model.
const DefaultDeadAir = 3

// MaxProbeRedirects bounds how many cycle-start jumps a probing client
// will chase before concluding the timeline carries no reachable root.
const MaxProbeRedirects = 8

// maxHops bounds a descent and a range scan: a walk that reads more
// buckets than this is chasing a corrupt pointer structure.
const maxHops = 1 << 16

// Faults is the one fault configuration of the client. The zero value
// is a perfect medium with failover disabled. Model, Outages and
// Downtimes describe the analytic air; MaxRetries, DeadAir and Backoff
// configure the client on every medium.
type Faults struct {
	// Model is the seeded per-slot loss distribution: a lost or corrupt
	// read is retried at the same cycle slot one cycle later.
	Model fault.Model
	// Outages is the channel-outage schedule: a slot inside a window is
	// dead air on its channel regardless of Model.
	Outages fault.Outages
	// Downtimes is the station crash schedule: the station dies at each
	// window's StartSlot and accepts connections again from EndSlot on.
	Downtimes fault.Downtimes
	// Backoff is the seeded reconnect schedule shared with the socket
	// client.
	Backoff fault.Backoff
	// MaxRetries bounds Retries+Restarts+Failovers+Reconnects per query
	// (≤ 0 = DefaultMaxRetries).
	MaxRetries int
	// DeadAir arms channel failover on point lookups: after DeadAir
	// consecutive unusable reads of one bucket the client declares the
	// channel dead and re-probes. ≤ 0 disables failover, exactly as on
	// netcast.Client. Range scans never fail over.
	DeadAir int
}

func (f *Faults) budget() int {
	if f.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return f.MaxRetries
}

// Kind classifies a heard bucket, numbered as on the wire.
type Kind uint8

const (
	KindEmpty Kind = iota
	KindIndex
	KindData
)

// Frame is one bucket as the client hears it, with the stamps of the
// epoch that aired it. The protocol routes only on what every medium
// carries: the stamps, the bucket's Kind, Root, Key, Label, NextCycle
// and Children with their key ranges. Node and the pointers' Target are
// tree node IDs on the analytic air and tree.None on the socket, so the
// node-ID checks run only where node IDs exist.
type Frame struct {
	*Bucket
	// Epoch is the program generation the bucket was compiled in.
	Epoch uint32
	// RootChannel is the 1-based channel carrying that program's root.
	RootChannel int
}

// Outcome is what one wake-up on a medium yields.
type Outcome uint8

const (
	// Heard is a usable bucket.
	Heard Outcome = iota
	// Lost is a slot that carried nothing usable: lost, corrupt or dark.
	Lost
	// Dropped is a station crash that severed the connection before the
	// requested slot aired.
	Dropped
)

// Medium is the air a client listens to: the one place where the
// analytic twin and the socket differ.
type Medium interface {
	// Read requests the bucket on channel ch at absolute slot and wakes
	// at the slot that serves it — slot itself, or its next cyclic
	// occurrence after the radio's last read — returning that slot with
	// a Heard frame or a Lost slot, or Dropped when the station crashed
	// first. An error is a transport failure the session cannot recover
	// from. The frame's bucket may alias storage the next Read reuses.
	Read(ch, slot int) (served int, f Frame, out Outcome, err error)
	// Redial reports whether the station accepts a connection at slot.
	// After a successful redial the radio hears no slot before slot.
	Redial(slot int) bool
}

// Recovery names a budget-charged recovery.
type Recovery uint8

const (
	Retry Recovery = iota
	Restart
	Failover
	Reconnect
)

var recoveryNoun = [...]string{
	Retry:     "redundant wake-ups",
	Restart:   "descent restarts",
	Failover:  "channel failovers",
	Reconnect: "reconnect attempts",
}

// Tuner runs the protocol over a Medium other than the analytic air:
// the netcast socket. The analytic entry points (Timeline.Query,
// Program.QueryBatch, ...) build their sessions directly.
type Tuner struct {
	Medium Medium
	// Faults configures the client: MaxRetries, DeadAir and Backoff. Its
	// Model, Outages and Downtimes describe the analytic air and are not
	// read.
	Faults Faults
	// Channels is the tower's channel count, which failover needs to move
	// the root belief past a dead channel.
	Channels int
	// Trace, when non-nil, is called once per charged recovery, before
	// the budget check, with the channel and slot it was charged at; a
	// reconnect also passes its 1-based attempt.
	Trace func(r Recovery, channel, slot, attempt int)
}

func (t *Tuner) session(arrival int) *session {
	s := &session{med: t.Medium, trace: t.Trace}
	s.start(&t.Faults, t.Channels, arrival)
	return s
}

// Lookup walks to the data item with the given key; see walk. label is
// the label of the data bucket the walk ended on ("" when no pointer
// covered the key). On failure the partial metrics come back with the
// error.
func (t *Tuner) Lookup(arrival int, key int64, pw Power) (found bool, label string, m Metrics, err error) {
	s := t.session(arrival)
	found, label, err = s.walk(targetNode{key: key})
	return found, label, s.result(pw, err), err
}

// LookupRange retrieves every item with a key in [lo, hi]; see scan.
func (t *Tuner) LookupRange(arrival int, lo, hi int64, pw Power) ([]int64, Metrics, error) {
	s := t.session(arrival)
	var keys []int64
	err := s.scan(lo, hi, &keys)
	return keys, s.result(pw, err), err
}

// ReadBatch executes a batch plan with one radio; see batch. The plan
// must hold at least one step, all on antenna 0.
func (t *Tuner) ReadBatch(plan *BatchPlan, pw Power) (Metrics, error) {
	s := t.session(plan.Arrival)
	err := s.batch(plan, nil)
	return s.result(pw, err), err
}

// session is one client's state across a query: the medium it listens
// to, its metrics, the slot its radio last heard, where its next probe
// starts, and its belief about which channel carries the root.
type session struct {
	// air is the analytic medium, held by value so a static query never
	// leaves the stack; med, when non-nil, is the medium in use instead.
	// Escape analysis cannot tell the fields apart, so whatever a field
	// points to follows med's interface calls to the heap: point only at
	// memory already there (the static timeline lives in its Program).
	air      air
	med      Medium
	trace    func(r Recovery, channel, slot, attempt int)
	budget   int
	deadAir  int
	backoff  fault.Backoff
	channels int
	m        Metrics
	arrival  int
	now      int
	probeAt  int
	rootCh   int
}

// start readies the session for a query arriving at the given slot.
// Fields are set in place: a session is too large to copy per query.
func (s *session) start(f *Faults, channels, arrival int) {
	s.budget, s.deadAir, s.backoff, s.channels = f.budget(), f.DeadAir, f.Backoff, channels
	s.arrival, s.now, s.probeAt, s.rootCh = arrival, arrival-1, arrival, 1
}

// result is the session's metrics: finished when the query succeeded,
// partial when it failed with err.
func (s *session) result(pw Power, err error) Metrics {
	if err == nil {
		s.m.finish(pw)
	}
	return s.m
}

// tune is one wake-up on the session's medium.
func (s *session) tune(ch, slot int) (int, Frame, Outcome, error) {
	if s.med != nil {
		return s.med.Read(ch, slot)
	}
	return s.air.Read(ch, slot)
}

func (s *session) redial(slot int) bool {
	if s.med != nil {
		return s.med.Redial(slot)
	}
	return s.air.Redial(slot)
}

// charge increments one recovery counter, traces it and checks the
// shared budget.
func (s *session) charge(r Recovery, ch, slot, attempt int) error {
	m := &s.m
	var n int
	switch r {
	case Retry:
		m.Retries++
		n = m.Retries
	case Restart:
		m.Restarts++
		n = m.Restarts
	case Failover:
		m.Failovers++
		n = m.Failovers
	default:
		m.Reconnects++
		n = m.Reconnects
	}
	if s.trace != nil {
		s.trace(r, ch, slot, attempt)
	}
	if m.Retries+m.Restarts+m.Failovers+m.Reconnects > s.budget {
		return fmt.Errorf("sim: channel %d slot %d: %w after %d %s",
			ch, slot, fault.ErrRetryBudget, n-1, recoveryNoun[r])
	}
	return nil
}

// read is the one read step: request bucket (ch, req) and wake at the
// slot the medium serves it in.
//
//   - Dropped: the station crashed under the connection before any frame
//     arrived. The session runs the seeded backoff loop (one Reconnect
//     per attempt) and returns Dropped with probeAt at the reconnect
//     slot.
//   - Otherwise the wake-up costs one TuningTime; a lost slot charges one
//     Retry and re-requests the slot just heard, until deadAirAfter
//     consecutive failures (when > 0) return Lost with now at the last
//     failed read.
func (s *session) read(ch, req, deadAirAfter int) (Frame, Outcome, error) {
	for run := 1; ; run++ {
		slot, f, out, err := s.tune(ch, req)
		if err != nil {
			return Frame{}, Dropped, err
		}
		if out == Dropped {
			return Frame{}, Dropped, s.reconnect(ch, req)
		}
		s.now = slot
		s.m.TuningTime++
		if out == Heard {
			return f, Heard, nil
		}
		if err := s.charge(Retry, ch, slot, 0); err != nil {
			return Frame{}, Lost, err
		}
		if deadAirAfter > 0 && run >= deadAirAfter {
			return Frame{}, Lost, nil
		}
		req = slot
	}
}

// reconnect is the crash-reconnect loop from the dropped request slot:
// each attempt charges one Reconnect, advances the listen slot by the
// seeded backoff and redials, so the slot walk is a pure function of
// (Backoff.Seed, req) on every medium.
func (s *session) reconnect(ch, req int) error {
	w := req
	for attempt := 1; ; attempt++ {
		if err := s.charge(Reconnect, ch, w, attempt); err != nil {
			return err
		}
		w += s.backoff.Delay(attempt)
		if s.redial(w) {
			s.probeAt = w
			return nil
		}
	}
}

// recoverFrom handles a read on channel ch that heard no frame and reports
// whether the read heard one after all. After a drop the session
// re-probes from the reconnect slot; after dead air it charges a
// failover, moves its root belief past ch when ch is the believed root,
// and re-probes from the next slot.
func (s *session) recoverFrom(out Outcome, ch int) (bool, error) {
	switch out {
	case Dropped:
		return false, nil
	case Lost:
		if err := s.charge(Failover, ch, s.now, 0); err != nil {
			return false, err
		}
		if ch == s.rootCh {
			s.rootCh = s.rootCh%s.channels + 1
		}
		s.probeAt = s.now + 1
		return false, nil
	}
	return true, nil
}

// probe tunes the believed root channel at probeAt and follows the
// RootChannel stamp and the NextCycle pointer of every bucket it hears
// until it holds a root bucket, at most MaxProbeRedirects jumps. ok is
// false when a drop or a failover sent the session back to probeAt.
func (s *session) probe(deadAirAfter int) (Frame, bool, error) {
	f, out, err := s.read(s.rootCh, s.probeAt, deadAirAfter)
	for redirects := 0; ; redirects++ {
		if err != nil {
			return f, false, err
		}
		if ok, err := s.recoverFrom(out, s.rootCh); !ok {
			return f, false, err
		}
		s.rootCh = f.RootChannel
		if f.Root {
			return f, true, nil
		}
		if redirects >= MaxProbeRedirects {
			return f, false, fmt.Errorf("%w after %d redirects", ErrMissingRoot, redirects)
		}
		f, out, err = s.read(s.rootCh, s.now+max(f.NextCycle, 1), deadAirAfter)
	}
}

// targetNode is what a point walk descends to: a key, or on unkeyed
// trees (analytic air only) a data node ID under tree t.
type targetNode struct {
	key int64
	id  tree.ID
	t   *tree.Tree
}

// next returns the index in f.Children of the pointer the walk follows
// from frame f, or -1 when f ends the walk; found then reports whether f
// is the wanted data item (a miss is a negative lookup: no child covers
// the target).
func (w targetNode) next(f *Frame) (i int, found bool) {
	if w.t != nil {
		if f.Node == w.id {
			return -1, true
		}
		for i, c := range f.Children {
			if c.Target == w.id || w.t.IsAncestor(c.Target, w.id) {
				return i, false
			}
		}
		return -1, false
	}
	if f.Kind == KindData {
		return -1, f.Key == w.key
	}
	for i := range f.Children {
		if c := &f.Children[i]; w.key >= c.KeyLo && w.key <= c.KeyHi {
			return i, false
		}
	}
	return -1, false
}

// walk is the one point lookup: probe the believed root channel, sync
// to a root, then follow the pointers toward want. A bucket from a newer
// epoch than the descent started in means its pointers are stale: the
// client charges a restart and re-probes from the next slot. Dead air
// fails over and a dropped connection re-probes from the reconnect
// slot. ProbeWait covers everything before the root bucket the
// successful descent started from, so recovered work surfaces as probe
// wait. label is that of the data bucket the walk ended on.
func (s *session) walk(want targetNode) (found bool, label string, err error) {
probe:
	for {
		f, ok, err := s.probe(s.deadAir)
		if err != nil {
			return false, "", err
		}
		if !ok {
			continue
		}
		epoch := f.Epoch
		start := s.now
		s.m.ProbeWait = start - s.arrival
		for hops := 0; hops < maxHops; hops++ {
			// The epoch stamp is checked before the bucket is
			// interpreted: across a swap the slot may hold anything.
			if f.Epoch != epoch {
				if err := s.charge(Restart, s.rootCh, s.now, 0); err != nil {
					return false, "", err
				}
				s.probeAt = s.now + 1
				continue probe
			}
			i, found := want.next(&f)
			if i < 0 {
				s.m.DataWait = s.now - start + 1
				if f.Kind == KindData {
					label = f.Label
				}
				return found, label, nil
			}
			// Copied out: the medium may reuse the frame's storage on the
			// next read.
			ch, target := f.Children[i].Channel, f.Children[i].Target
			var out Outcome
			if f, out, err = s.read(ch, s.now+f.Children[i].Offset, s.deadAir); err != nil {
				return false, "", err
			}
			if ok, err := s.recoverFrom(out, ch); !ok {
				if err != nil {
					return false, "", err
				}
				continue probe
			}
			s.rootCh = f.RootChannel
			if f.Epoch == epoch && target != tree.None && f.Node != target {
				return false, "", fmt.Errorf("%w: pointer to node %d found %v at channel %d slot %d",
					ErrBrokenPointer, target, f.Node, ch, s.now)
			}
		}
		return false, "", fmt.Errorf("sim: descent did not terminate")
	}
}

// query runs one point walk over the given epochs of the analytic air
// and finishes its metrics on success. On failure the partial metrics
// come back with the error.
func query(entries []Entry, arrival int, want targetNode, pw Power, f *Faults) (Metrics, bool, error) {
	var s session
	s.startAir(entries, f, arrival)
	found, _, err := s.walk(want)
	return s.result(pw, err), found, err
}

// RangeResult is the outcome of a range query.
type RangeResult struct {
	Metrics Metrics
	// Keys holds the retrieved keys in retrieval order.
	Keys []int64
}

// pending is a scheduled future bucket read at an absolute slot.
type pending struct {
	at      int
	channel int
	target  tree.ID
}

// scan runs the one range scan over the given epochs of the analytic
// air.
func scan(entries []Entry, arrival int, lo, hi int64, pw Power, f *Faults) (RangeResult, error) {
	var res RangeResult
	var s session
	s.startAir(entries, f, arrival)
	err := s.scan(lo, hi, &res.Keys)
	res.Metrics = s.result(pw, err)
	return res, err
}

// scan is the one range scan, retrieving every data item with a key in
// [lo, hi]. After the same probe as a point walk (without failover) the
// client keeps a frontier of index pointers whose key ranges intersect
// the range and visits them in slot order; a slot that passed while the
// single receiver read another channel is caught on a later cyclic
// transmission, and a lost frontier read is re-queued at the slot just
// heard. An epoch swap or a station crash observed mid-scan invalidates
// the frontier, so the client discards the partial key set and re-scans
// from a fresh probe — after charging a restart, or from the reconnect
// slot.
func (s *session) scan(lo, hi int64, keys *[]int64) error {
rescan:
	for {
		f, ok, err := s.probe(0)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		epoch := f.Epoch
		start := s.now
		s.m.ProbeWait = start - s.arrival
		*keys = (*keys)[:0]

		q := pqueue.New(func(a, b pending) bool { return a.at < b.at })
		visit := func(f *Frame) error {
			switch f.Kind {
			case KindEmpty:
				return fmt.Errorf("sim: range query read an empty bucket")
			case KindData:
				if f.Key >= lo && f.Key <= hi {
					*keys = append(*keys, f.Key)
				}
				return nil
			}
			for _, c := range f.Children {
				if c.KeyLo <= hi && c.KeyHi >= lo {
					q.Push(pending{at: s.now + c.Offset, channel: c.Channel, target: c.Target})
				}
			}
			return nil
		}
		if err := visit(&f); err != nil {
			return err
		}
		for reads := 1; q.Len() > 0; reads++ {
			next := q.Pop()
			if reads > maxHops+s.budget {
				return fmt.Errorf("sim: range query did not terminate")
			}
			// One wake-up per frontier read: a lost read is re-queued
			// rather than retried in place, so the catch-up rule
			// interleaves it with the rest of the frontier.
			f, out, err := s.read(next.channel, next.at, 1)
			if err != nil {
				return err
			}
			switch out {
			case Dropped:
				continue rescan
			case Lost:
				q.Push(pending{at: s.now, channel: next.channel, target: next.target})
				continue
			}
			s.rootCh = f.RootChannel
			if f.Epoch != epoch {
				if err := s.charge(Restart, next.channel, s.now, 0); err != nil {
					return err
				}
				s.probeAt = s.now + 1
				continue rescan
			}
			if next.target != tree.None && f.Node != next.target {
				return fmt.Errorf("%w: range pointer to node %d found %v",
					ErrBrokenPointer, next.target, f.Node)
			}
			if err := visit(&f); err != nil {
				return err
			}
		}
		s.m.DataWait = s.now - start + 1
		return nil
	}
}

// batch is the one batch executor: it requests each scheduled (channel,
// slot) of the plan in order, on the radio of the step's antenna —
// radios[st.Antenna], or the session's medium when radios is nil. A plan
// slot that has already aired on that radio — because an earlier read
// spilled into a later cycle — is served at its next cyclic occurrence,
// and a lost read is retried at the same cycle slot one cycle later
// under the shared budget. A station crash re-requests the in-flight
// step after the reconnect, whose radio hears no slot before the
// reconnect slot.
//
// The batch is one session against one program generation: the epoch
// stamp of the first read is pinned, and a later read from a different
// epoch means the precomputed slots no longer describe the air — the
// client charges one restart and fails with an error wrapping
// ErrStalePlan. Metrics report the whole batch as one session:
// ProbeWait is arrival to the first item in hand, DataWait spans first
// to last item, and Conflicts/ExtraCycles are copied from the plan.
func (s *session) batch(plan *BatchPlan, radios []Medium) error {
	s.m.Conflicts = plan.Conflicts
	s.m.ExtraCycles = plan.ExtraCycles
	var epoch uint32
	first, last := -1, -1
	for i := 0; i < len(plan.Steps); {
		st := &plan.Steps[i]
		if radios != nil {
			s.med = radios[st.Antenna]
		}
		f, out, err := s.read(st.Channel, st.Slot, 0)
		if err != nil {
			return err
		}
		if out == Dropped {
			continue
		}
		// The epoch stamp is checked before the bucket is interpreted:
		// across a hot swap this slot may hold anything.
		if i == 0 {
			epoch = f.Epoch
		} else if f.Epoch != epoch {
			if err := s.charge(Restart, st.Channel, s.now, 0); err != nil {
				return err
			}
			return fmt.Errorf("%w: epoch %d became %d at channel %d slot %d",
				ErrStalePlan, epoch, f.Epoch, st.Channel, s.now)
		}
		if !st.airs(&f) {
			return fmt.Errorf("%w: planned %q at channel %d slot %d, heard kind %d %q",
				ErrBrokenPointer, st.Label, st.Channel, s.now, f.Kind, f.Label)
		}
		if first < 0 || s.now < first {
			first = s.now
		}
		last = max(last, s.now)
		i++
	}
	s.m.ProbeWait = first - plan.Arrival
	s.m.DataWait = last - first + 1
	return nil
}
