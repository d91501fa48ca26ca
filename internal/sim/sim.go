// Package sim is the wireless-broadcast substrate the paper assumes: a
// server cyclically transmits buckets over k channels, one bucket per slot
// per channel, and a mobile client retrieves data by tuning to a single
// channel at a time, following (channel, offset) pointers and dozing in
// between. It makes the paper's access-time/tuning-time story executable:
//
//   - probe wait: from arrival until the bucket containing the index root
//     (every channel-1 bucket carries a pointer to the next cycle start);
//   - data wait: from the cycle start until the requested data bucket —
//     whose weighted average over data nodes is exactly Formula 1;
//   - tuning time: the number of buckets actually read, which with the
//     paper's doze mode determines energy consumption.
//
// Compile turns any feasible Allocation into a Program of linked buckets;
// Query drives a single client request against it. The optional root
// replication (Options.FillWithRootCopies) implements the paper's
// future-work direction of replicating index nodes to cut the initial
// probe, reusing otherwise-empty slots.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/tree"
)

// Sentinel corruption errors. Query and its range/adaptive variants wrap
// these with %w so callers can classify a failure with errors.Is instead
// of matching the position/label detail in the message text.
var (
	// ErrMissingRoot reports a cycle start whose channel-1 slot carries
	// neither the index root nor a root copy.
	ErrMissingRoot = errors.New("sim: cycle start does not hold the root")

	// ErrBrokenPointer reports an index pointer whose target slot holds a
	// different node than the pointer promised (or a bucket missing the
	// pointer the descent needs).
	ErrBrokenPointer = errors.New("sim: broken index pointer")
)

// Pointer addresses a future bucket relative to the current slot.
type Pointer struct {
	Channel int // 1-based target channel
	Offset  int // slots ahead of the current slot (> 0)
	Target  tree.ID
	// KeyLo and KeyHi are the key range of the target's subtree (zero on
	// unkeyed trees): the routing information the wire carries.
	KeyLo, KeyHi int64
}

// pointerTo addresses child c, airing at position cp, off slots ahead.
func pointerTo(t *tree.Tree, c tree.ID, cp alloc.Position, off int) Pointer {
	lo, hi, _ := t.KeyRange(c)
	return Pointer{Channel: cp.Channel, Offset: off, Target: c, KeyLo: lo, KeyHi: hi}
}

// Bucket is one transmitted unit. Empty filler buckets have Node == tree.None.
type Bucket struct {
	Node tree.ID
	// Kind, Root, Key and Label are what the wire carries of the node, the
	// fields a client routes on alike on every medium: the bucket's kind,
	// whether it holds the index root or a replica of it, and the key and
	// label of its item.
	Kind Kind
	Root bool
	// RootCopy marks a replicated root bucket occupying a filler slot.
	// (The three flags share the word after Node.)
	RootCopy bool
	Key      int64
	Label    string
	// Children points at the node's children (index buckets only).
	Children []Pointer
	// NextCycle is the offset to the first slot of the next cycle; set on
	// every bucket of every channel so any arriving client — including one
	// redirected off a dead channel — can synchronize from wherever it is.
	NextCycle int
}

// Options configures program compilation.
type Options struct {
	// FillWithRootCopies replicates the index root into every empty
	// channel-1 slot, letting clients that tune in mid-cycle begin their
	// descent immediately (pointers wrap into the next cycle as needed).
	FillWithRootCopies bool
}

// Program is a compiled cyclic broadcast.
type Program struct {
	t        *tree.Tree
	k        int
	cycleLen int
	buckets  [][]Bucket // [channel-1][slot-1]
	slotOf   []alloc.Position
	opt      Options
	// rootCh is the channel whose cycle starts carry the index root: 1 for
	// a directly compiled program, the first surviving channel for a
	// program remapped onto a degraded tower (see Remap).
	rootCh int
	// static is the program as a single-epoch timeline, the air of the
	// static entry points.
	static []Entry
}

// Tree returns the index tree the program broadcasts.
func (p *Program) Tree() *tree.Tree { return p.t }

// Channels returns the channel count.
func (p *Program) Channels() int { return p.k }

// RootChannel returns the channel whose cycle starts hold the index root
// — channel 1 except for programs remapped onto a degraded channel set.
func (p *Program) RootChannel() int {
	if p.rootCh == 0 {
		return 1
	}
	return p.rootCh
}

// CycleLen returns the broadcast cycle length in slots.
func (p *Program) CycleLen() int { return p.cycleLen }

// BucketAt returns the bucket transmitted on channel ch at cycle slot s
// (both 1-based).
func (p *Program) BucketAt(ch, s int) Bucket { return p.buckets[ch-1][s-1] }

// Position returns the (channel, cycle slot) the allocation assigned to
// node id — the airing a batch retrieval planner schedules around. Root
// copies are not reflected: the returned position is the node's primary
// slot. On a remapped program dark-channel nodes report their remapped
// physical position.
func (p *Program) Position(id tree.ID) alloc.Position { return p.slotOf[id] }

// Compile links an allocation into a broadcast program.
func Compile(a *alloc.Allocation, opt Options) (*Program, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	t := a.Tree()
	if rp := a.Pos(t.Root()); rp.Channel != 1 || rp.Slot != 1 {
		// The client protocol requires the cycle to open with the root on
		// the first channel (Section 2.1 of the paper).
		return nil, fmt.Errorf("sim: root must be at channel 1 slot 1, got channel %d slot %d",
			rp.Channel, rp.Slot)
	}
	p := &Program{
		t:        t,
		k:        a.Channels(),
		cycleLen: a.NumSlots(),
		slotOf:   make([]alloc.Position, t.NumNodes()),
		opt:      opt,
		rootCh:   1,
	}
	p.static = []Entry{{Prog: p}}
	p.buckets = make([][]Bucket, p.k)
	for ch := range p.buckets {
		p.buckets[ch] = make([]Bucket, p.cycleLen)
		for s := range p.buckets[ch] {
			p.buckets[ch][s] = Bucket{Node: tree.None}
		}
	}
	for i := 0; i < t.NumNodes(); i++ {
		id := tree.ID(i)
		pos := a.Pos(id)
		p.slotOf[id] = pos
		b := nodeBucket(t, id)
		for _, c := range t.Children(id) {
			cp := a.Pos(c)
			b.Children = append(b.Children, pointerTo(t, c, cp, cp.Slot-pos.Slot))
		}
		p.buckets[pos.Channel-1][pos.Slot-1] = b
	}
	// Every bucket on every channel advertises the next cycle start, so a
	// client that lost its channel mid-descent can resynchronize from any
	// surviving channel instead of only from channel 1.
	for ch := range p.buckets {
		for s := 1; s <= p.cycleLen; s++ {
			p.buckets[ch][s-1].NextCycle = p.cycleLen - s + 1
		}
	}
	if opt.FillWithRootCopies && t.NumNodes() > 1 {
		p.fillRootCopies(a)
	}
	return p, nil
}

// nodeBucket is the bucket of node id, with room for its pointers.
func nodeBucket(t *tree.Tree, id tree.ID) Bucket {
	b := Bucket{Node: id, Kind: KindIndex, Root: id == t.Root(), Label: t.Label(id)}
	if n := len(t.Children(id)); n > 0 {
		b.Children = make([]Pointer, 0, n)
	}
	if t.IsData(id) {
		b.Kind = KindData
		b.Key, _ = t.Key(id)
	}
	return b
}

// fillRootCopies writes a replica of the root into every empty channel-1
// slot, with child offsets wrapping into the next cycle when the child's
// slot has already passed.
func (p *Program) fillRootCopies(a *alloc.Allocation) {
	t := p.t
	root := t.Root()
	for s := 1; s <= p.cycleLen; s++ {
		if p.buckets[0][s-1].Node != tree.None {
			continue
		}
		b := nodeBucket(t, root)
		b.RootCopy, b.NextCycle = true, p.cycleLen-s+1
		for _, c := range t.Children(root) {
			cp := a.Pos(c)
			off := cp.Slot - s
			if off <= 0 {
				off += p.cycleLen
			}
			b.Children = append(b.Children, pointerTo(t, c, cp, off))
		}
		p.buckets[0][s-1] = b
	}
}

// Power is the per-slot energy model: Active while reading a bucket, Doze
// while waiting with the receiver off.
type Power struct {
	Active, Doze float64
}

// Metrics reports one query's cost, all in slots except Energy.
type Metrics struct {
	// ProbeWait is the time from arrival until the slot holding the root
	// bucket the descent started from begins.
	ProbeWait int
	// DataWait is the time from that root bucket's slot to the end of the
	// slot carrying the requested data.
	DataWait int
	// AccessTime = ProbeWait + DataWait: arrival to data in hand.
	AccessTime int
	// TuningTime is the number of buckets read (receiver active),
	// including redundant wake-ups that yielded a lost or corrupt frame.
	TuningTime int
	// Retries counts redundant wake-ups on a lossy channel: reads that
	// returned nothing usable, each answered by re-tuning to the same
	// (channel, slot) in the next broadcast cycle. Zero on a perfect
	// medium.
	Retries int
	// Restarts counts descents abandoned because the broadcast program was
	// hot-swapped mid-traversal: the client observed a bucket from a newer
	// epoch, discarded its cached pointers and restarted from the new root.
	// Restarts share the retry budget with Retries, Failovers and
	// Reconnects. Zero on a static broadcast.
	Restarts int
	// Failovers counts channel failovers: descents abandoned because the
	// client declared the channel it was reading dead (DeadAir consecutive
	// unusable reads) and re-tuned via a surviving channel. Failovers share
	// the retry budget with Retries, Restarts and Reconnects. Zero
	// unless the query ran under an outage schedule.
	Failovers int
	// Reconnects counts re-dial attempts after the station itself crashed
	// and severed the connection: each backoff step that redials (successfully
	// or not) counts one. Reconnects share the retry budget
	// (Retries + Restarts + Failovers + Reconnects ≤ MaxRetries). Zero
	// unless the query ran under a downtime schedule.
	Reconnects int
	// Conflicts counts batch targets that could not be read at their first
	// airing after arrival because the single tuner was busy on another
	// channel — two wanted nodes overlapped on the air — forcing a wait
	// for a later cycle. Copied from the executed BatchPlan; zero on
	// single-key queries.
	Conflicts int
	// ExtraCycles is the total number of whole broadcast cycles lost to
	// those conflicts (a target pushed j cycles past its first airing
	// contributes j). Zero on single-key queries.
	ExtraCycles int
	// Energy = Active·TuningTime + Doze·(AccessTime − TuningTime).
	Energy float64
}

func (m *Metrics) finish(pw Power) {
	m.AccessTime = m.ProbeWait + m.DataWait
	doze := m.AccessTime - m.TuningTime
	if doze < 0 {
		doze = 0
	}
	m.Energy = pw.Active*float64(m.TuningTime) + pw.Doze*float64(doze)
}

// slotInCycle maps a global 0-based time to a 1-based cycle slot.
func (p *Program) slotInCycle(t int) int { return t%p.cycleLen + 1 }

// Query retrieves the data node target, arriving at the beginning of
// global slot arrival (any non-negative integer; the cycle phase is
// arrival mod CycleLen). It uses only bucket pointers — never the tree
// structure directly — so it exercises the compiled program end to end.
func (p *Program) Query(arrival int, target tree.ID, pw Power) (Metrics, error) {
	return p.QueryFaulty(arrival, target, pw, Faults{})
}

// QueryFaulty is Query under the given faults: it runs the one point
// walk of the client protocol against the program, descending by the
// target's key on keyed trees and by node ID otherwise. It fails with an
// error wrapping fault.ErrRetryBudget when the shared budget runs out.
func (p *Program) QueryFaulty(arrival int, target tree.ID, pw Power, f Faults) (Metrics, error) {
	if arrival < 0 {
		return Metrics{}, fmt.Errorf("sim: negative arrival %d", arrival)
	}
	if !p.t.IsData(target) {
		return Metrics{}, fmt.Errorf("sim: target %s is not a data node", p.t.Label(target))
	}
	if err := f.Downtimes.Validate(); err != nil {
		return Metrics{}, err
	}
	want := targetNode{id: target, t: p.t}
	if k, ok := p.t.Key(target); ok {
		want = targetNode{key: k}
	}
	m, _, err := query(p.static, arrival, want, pw, &f)
	if err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// QueryKey retrieves the data item with the given key on a keyed tree.
// found is false when no item carries the key; the client still pays the
// descent to the deepest enclosing range (a negative lookup).
func (p *Program) QueryKey(arrival int, key int64, pw Power) (Metrics, bool, error) {
	tl := Timeline{entries: p.static}
	return tl.Query(arrival, key, pw, Faults{})
}

// QueryRange retrieves every data item with a key in [lo, hi] (inclusive)
// from a keyed broadcast, supporting the [TY98]-style range workloads;
// see scan for the frontier protocol. When two needed buckets are
// broadcast in the same slot on different channels, the later one is
// deferred a full cycle (a single-receiver client can only listen to
// one channel per slot).
func (p *Program) QueryRange(arrival int, lo, hi int64, pw Power) (RangeResult, error) {
	tl := Timeline{entries: p.static}
	return tl.QueryRange(arrival, lo, hi, pw, Faults{})
}

// Summary aggregates weighted-average metrics over arrivals and targets.
type Summary struct {
	ProbeWait, DataWait, AccessTime, TuningTime, Energy float64
	// Retries is the expected number of redundant wake-ups per query
	// (zero on a perfect medium).
	Retries float64
	// Restarts is the expected number of epoch-swap descent restarts per
	// query (zero on a static broadcast).
	Restarts float64
	// Failovers is the expected number of channel failovers per query
	// (zero unless evaluated under an outage schedule).
	Failovers float64
	// Reconnects is the expected number of station re-dial attempts per
	// query (zero unless evaluated under a downtime schedule).
	Reconnects float64
	// Conflicts is the expected number of batch retrieval conflicts per
	// query — wanted nodes overlapping on the air (zero for single-key
	// workloads).
	Conflicts float64
	// ExtraCycles is the expected number of whole cycles lost to those
	// conflicts per query (zero for single-key workloads).
	ExtraCycles float64
}

// Evaluate computes the exact expected metrics of the program under the
// given faults: a query arrives uniformly at every cycle phase of the
// first cycle and requests data node D with probability W(D)/ΣW. On a
// perfect medium the expected data wait is exactly Formula 1. With a
// lossy Model the result is one seeded realization of the channel:
// averaging over several model seeds approximates the expectation over
// channel noise. Any query that exhausts its budget fails the
// evaluation. All averages are exact sums, not samples.
func Evaluate(p *Program, pw Power, f Faults) (Summary, error) {
	var s Summary
	total := p.t.TotalWeight()
	if total == 0 {
		return s, fmt.Errorf("sim: zero total weight")
	}
	for _, d := range p.t.DataIDs() {
		u := p.t.Weight(d) / total / float64(p.cycleLen)
		for a := 0; a < p.cycleLen; a++ {
			m, err := p.QueryFaulty(a, d, pw, f)
			if err != nil {
				return s, err
			}
			s.add(m, u)
		}
	}
	return s, nil
}

// add folds one query's metrics into the summary with weight u. Every
// evaluator and FoldBatch accumulate through it.
func (s *Summary) add(m Metrics, u float64) {
	s.ProbeWait += u * float64(m.ProbeWait)
	s.DataWait += u * float64(m.DataWait)
	s.AccessTime += u * float64(m.AccessTime)
	s.TuningTime += u * float64(m.TuningTime)
	s.Retries += u * float64(m.Retries)
	s.Restarts += u * float64(m.Restarts)
	s.Failovers += u * float64(m.Failovers)
	s.Reconnects += u * float64(m.Reconnects)
	s.Conflicts += u * float64(m.Conflicts)
	s.ExtraCycles += u * float64(m.ExtraCycles)
	s.Energy += u * m.Energy
}

// scale multiplies every average by k.
func (s *Summary) scale(k float64) {
	for _, v := range []*float64{&s.ProbeWait, &s.DataWait, &s.AccessTime, &s.TuningTime,
		&s.Retries, &s.Restarts, &s.Failovers, &s.Reconnects, &s.Conflicts, &s.ExtraCycles, &s.Energy} {
		*v *= k
	}
}

// ItemMetrics is one data item's exact expected client cost.
type ItemMetrics struct {
	Label                                    string
	Key                                      int64
	Weight                                   float64
	DataWait, AccessTime, TuningTime, Energy float64
}

// EvaluatePerItem computes each data item's exact expected metrics over a
// uniform arrival phase — the operator's view of which items suffer the
// worst latency under the current allocation. Items are returned in
// catalog (preorder) order.
func EvaluatePerItem(p *Program, pw Power) ([]ItemMetrics, error) {
	out := make([]ItemMetrics, 0, p.t.NumData())
	for _, d := range p.t.DataIDs() {
		var s Summary
		for a := 0; a < p.cycleLen; a++ {
			m, err := p.Query(a, d, pw)
			if err != nil {
				return nil, err
			}
			s.add(m, 1/float64(p.cycleLen))
		}
		im := ItemMetrics{Label: p.t.Label(d), Weight: p.t.Weight(d),
			DataWait: s.DataWait, AccessTime: s.AccessTime, TuningTime: s.TuningTime, Energy: s.Energy}
		if k, ok := p.t.Key(d); ok {
			im.Key = k
		}
		out = append(out, im)
	}
	return out, nil
}
