package sim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// This file is the analytic client protocol: one read step, one point
// walk and one range scan, run over a Timeline of epoch-versioned
// programs under one fault configuration. Every static-program entry
// point is the single-epoch case of the same walk, and the netcast
// client implements the identical protocol over real sockets, so the
// two report byte-identical Metrics under identical seeds and
// schedules. Every recovery — a lost read (Retries), an epoch swap
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

// Faults is the one fault configuration of the analytic client. The
// zero value is a perfect medium with failover disabled.
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

// outcome is what one read step yields besides an error.
type outcome uint8

const (
	// heard: a usable frame.
	heard outcome = iota
	// deadAir: the threshold of consecutive unusable reads was reached.
	deadAir
	// dropped: the station crashed under the connection; the session
	// has already reconnected and listens from born.
	dropped
)

// recovery names a budget-charged counter.
type recovery uint8

const (
	retry recovery = iota
	restart
	failover
	reconnect
)

var recoveryNoun = [...]string{
	retry:     "redundant wake-ups",
	restart:   "descent restarts",
	failover:  "channel failovers",
	reconnect: "reconnect attempts",
}

// session is one client's state across a query: the air it listens to,
// its metrics, the slot its radio last tuned, the slot its connection
// was born at, and its belief about which channel carries the root.
type session struct {
	tl       Timeline
	f        *Faults
	budget   int
	channels int
	m        Metrics
	arrival  int
	now      int
	born     int
	probeAt  int
	rootCh   int
}

func newSession(entries []Entry, f *Faults, arrival int) session {
	return session{
		tl:       Timeline{entries: entries},
		f:        f,
		budget:   f.budget(),
		channels: entries[0].Prog.k,
		arrival:  arrival,
		now:      arrival - 1,
		born:     -1, // the connection predates the broadcast
		probeAt:  arrival,
		rootCh:   1,
	}
}

// charge increments one recovery counter and checks the shared budget.
func (s *session) charge(r recovery, ch, slot int) error {
	m := &s.m
	var n int
	switch r {
	case retry:
		m.Retries++
		n = m.Retries
	case restart:
		m.Restarts++
		n = m.Restarts
	case failover:
		m.Failovers++
		n = m.Failovers
	default:
		m.Reconnects++
		n = m.Reconnects
	}
	if m.Retries+m.Restarts+m.Failovers+m.Reconnects > s.budget {
		return fmt.Errorf("sim: channel %d slot %d: %w after %d %s",
			ch, slot, fault.ErrRetryBudget, n-1, recoveryNoun[r])
	}
	return nil
}

// read is the one read step: request bucket (ch, req) and tune to the
// slot that serves it — req itself, or its next cyclic occurrence after
// the radio's last read when req has passed, the server's catch-up rule.
//
//   - A station crash between the connection's birth and the serve slot
//     drops the socket before any frame arrives: the session runs the
//     seeded backoff loop (one Reconnect per attempt) and returns
//     dropped, listening from born.
//   - Otherwise the wake-up costs one TuningTime; a dark, lost or
//     corrupt slot charges one Retry and re-requests the slot just
//     heard, until deadAir consecutive failures (when > 0) return
//     deadAir with now at the last failed read.
func (s *session) read(ch, req, deadAirAfter int) (Entry, *Bucket, outcome, error) {
	for run := 1; ; run++ {
		slot := req
		for slot <= s.now {
			slot += s.tl.EntryAt(slot).Prog.cycleLen
		}
		if win, ok := s.f.Downtimes.KillIn(s.born, slot); ok {
			w := req
			for attempt := 1; ; attempt++ {
				if err := s.charge(reconnect, ch, req); err != nil {
					return Entry{}, nil, dropped, err
				}
				w += s.f.Backoff.Delay(attempt)
				if w >= win.EndSlot && !s.f.Downtimes.DownAt(w) {
					s.born = w
					return Entry{}, nil, dropped, nil
				}
			}
		}
		s.now = slot
		s.m.TuningTime++
		if !s.f.Outages.DarkAt(ch, slot) {
			switch s.f.Model.At(ch, slot) {
			case fault.OK, fault.Stall: // a stall delays wall-clock delivery, never the slot clock
				e, b := s.tl.bucketAt(ch, slot)
				return e, b, heard, nil
			}
		}
		if err := s.charge(retry, ch, slot); err != nil {
			return Entry{}, nil, deadAir, err
		}
		if deadAirAfter > 0 && run >= deadAirAfter {
			return Entry{}, nil, deadAir, nil
		}
		req = slot
	}
}

// recoverFrom handles a read on channel ch that heard no frame and reports
// whether the read heard one after all. After a drop the session
// re-probes from the reconnect slot; after dead air it charges a
// failover, moves its root belief past ch when ch is the believed root,
// and re-probes from the next slot.
func (s *session) recoverFrom(out outcome, ch int) (bool, error) {
	switch out {
	case dropped:
		s.probeAt = s.born
		return false, nil
	case deadAir:
		if err := s.charge(failover, ch, s.now); err != nil {
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
func (s *session) probe(deadAirAfter int) (Entry, *Bucket, bool, error) {
	e, b, out, err := s.read(s.rootCh, s.probeAt, deadAirAfter)
	for redirects := 0; ; redirects++ {
		if err != nil {
			return e, b, false, err
		}
		if ok, err := s.recoverFrom(out, s.rootCh); !ok {
			return e, b, false, err
		}
		s.rootCh = e.Prog.RootChannel()
		if b.RootCopy || (b.Node != tree.None && b.Node == e.Prog.t.Root()) {
			return e, b, true, nil
		}
		if redirects >= MaxProbeRedirects {
			return e, b, false, fmt.Errorf("%w after %d redirects (got %v)", ErrMissingRoot, redirects, b.Node)
		}
		e, b, out, err = s.read(s.rootCh, s.now+max(b.NextCycle, 1), deadAirAfter)
	}
}

// targetNode is what a point walk descends to: a key, or on unkeyed
// trees a data node ID.
type targetNode struct {
	key  int64
	id   tree.ID
	byID bool
}

// next returns the pointer the walk follows from bucket b, or nil when
// b ends the walk — found reports whether b is the wanted data item
// (nil without a hit is a negative lookup: no child covers the target).
func (w targetNode) next(t *tree.Tree, b *Bucket) (ptr *Pointer, found bool) {
	if w.byID {
		if b.Node == w.id {
			return nil, true
		}
		for i, c := range b.Children {
			if c.Target == w.id || t.IsAncestor(c.Target, w.id) {
				return &b.Children[i], false
			}
		}
		return nil, false
	}
	if b.Node != tree.None && t.IsData(b.Node) {
		k, _ := t.Key(b.Node)
		return nil, k == w.key
	}
	for i, c := range b.Children {
		if lo, hi, _ := t.KeyRange(c.Target); w.key >= lo && w.key <= hi {
			return &b.Children[i], false
		}
	}
	return nil, false
}

// walk is the one point lookup: probe the believed root channel, sync
// to a root, then follow the pointers toward want. A bucket from a newer
// epoch than the descent started in means its pointers are stale: the
// client charges a restart and re-probes from the next slot. Dead air
// fails over and a dropped connection re-probes from the reconnect
// slot. ProbeWait covers everything before the root bucket the
// successful descent started from, so recovered work surfaces as probe
// wait.
func (s *session) walk(want targetNode) (bool, error) {
probe:
	for {
		e, b, ok, err := s.probe(s.f.DeadAir)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		epoch, t := e.Epoch, e.Prog.t
		start := s.now
		s.m.ProbeWait = start - s.arrival
		for hops := 0; hops <= t.NumNodes()+1; hops++ {
			// The epoch stamp is checked before the bucket is
			// interpreted: across a swap the slot may hold anything.
			if e.Epoch != epoch {
				if err := s.charge(restart, s.rootCh, s.now); err != nil {
					return false, err
				}
				s.probeAt = s.now + 1
				continue probe
			}
			ptr, found := want.next(t, b)
			if ptr == nil {
				s.m.DataWait = s.now - start + 1
				return found, nil
			}
			var out outcome
			if e, b, out, err = s.read(ptr.Channel, s.now+ptr.Offset, s.f.DeadAir); err != nil {
				return false, err
			}
			if ok, err := s.recoverFrom(out, ptr.Channel); !ok {
				if err != nil {
					return false, err
				}
				continue probe
			}
			s.rootCh = e.Prog.RootChannel()
			if e.Epoch == epoch && b.Node != ptr.Target {
				return false, fmt.Errorf("%w: pointer to %s found %v at channel %d slot %d",
					ErrBrokenPointer, t.Label(ptr.Target), b.Node, ptr.Channel, s.now)
			}
		}
		return false, fmt.Errorf("sim: descent did not terminate")
	}
}

// query runs one point walk over the given epochs and finishes its
// metrics on success. On failure the partial metrics come back with the
// error.
func query(entries []Entry, arrival int, want targetNode, pw Power, f *Faults) (Metrics, bool, error) {
	s := newSession(entries, f, arrival)
	found, err := s.walk(want)
	if err == nil {
		s.m.finish(pw)
	}
	return s.m, found, err
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

// scan is the one range scan, retrieving every data item with a key in
// [lo, hi]. After the same probe as a point walk (without failover) the
// client keeps a frontier of index pointers whose subtrees intersect the
// range and visits them in slot order; a slot that passed while the
// single receiver read another channel is caught on a later cyclic
// transmission, and a lost frontier read is re-queued at the slot just
// heard. An epoch swap or a station crash observed mid-scan invalidates
// the frontier, so the client discards the partial key set and re-scans
// from a fresh probe — after charging a restart, or from the reconnect
// slot.
func scan(entries []Entry, arrival int, lo, hi int64, pw Power, f *Faults) (RangeResult, error) {
	var res RangeResult
	s := newSession(entries, f, arrival)
	err := s.scan(lo, hi, &res.Keys)
	if err == nil {
		s.m.finish(pw)
	}
	res.Metrics = s.m
	return res, err
}

func (s *session) scan(lo, hi int64, keys *[]int64) error {
rescan:
	for {
		e, b, ok, err := s.probe(0)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		epoch, t := e.Epoch, e.Prog.t
		start := s.now
		s.m.ProbeWait = start - s.arrival
		*keys = (*keys)[:0]

		q := pqueue.New(func(a, b pending) bool { return a.at < b.at })
		visit := func(b *Bucket) error {
			if b.Node == tree.None {
				return fmt.Errorf("sim: range query read an empty bucket")
			}
			if t.IsData(b.Node) {
				if k, _ := t.Key(b.Node); k >= lo && k <= hi {
					*keys = append(*keys, k)
				}
				return nil
			}
			for _, c := range b.Children {
				if l, h, ok := t.KeyRange(c.Target); ok && l <= hi && h >= lo {
					q.Push(pending{at: s.now + c.Offset, channel: c.Channel, target: c.Target})
				}
			}
			return nil
		}
		if err := visit(b); err != nil {
			return err
		}
		maxReads := t.NumNodes()*(e.Prog.cycleLen+2) + s.budget
		for reads := 1; q.Len() > 0; reads++ {
			next := q.Pop()
			if reads > maxReads {
				return fmt.Errorf("sim: range query did not terminate")
			}
			// One wake-up per frontier read: a lost read is re-queued
			// rather than retried in place, so the catch-up rule
			// interleaves it with the rest of the frontier.
			e, b, out, err := s.read(next.channel, next.at, 1)
			if err != nil {
				return err
			}
			switch out {
			case dropped:
				s.probeAt = s.born
				continue rescan
			case deadAir:
				q.Push(pending{at: s.now, channel: next.channel, target: next.target})
				continue
			}
			s.rootCh = e.Prog.RootChannel()
			if e.Epoch != epoch {
				if err := s.charge(restart, next.channel, s.now); err != nil {
					return err
				}
				s.probeAt = s.now + 1
				continue rescan
			}
			if b.Node != next.target {
				return fmt.Errorf("%w: range pointer to %s found %v",
					ErrBrokenPointer, t.Label(next.target), b.Node)
			}
			if err := visit(b); err != nil {
				return err
			}
		}
		s.m.DataWait = s.now - start + 1
		return nil
	}
}
