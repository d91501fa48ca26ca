package netcast

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/wire"
)

// Client performs lookups against a netcast server. Its sessions run
// the one client protocol of package sim (sim.Tuner) over the
// connection, so they report Metrics byte-identical to the analytic
// twin under identical seeds and schedules.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	// MaxRetries bounds redundant wake-ups per lookup session on a lossy
	// broadcast (0 = sim.DefaultMaxRetries). Retries, epoch restarts and
	// channel failovers all draw from this one budget; when it runs out
	// the lookup fails with an error wrapping fault.ErrRetryBudget.
	MaxRetries int
	// DeadAir arms channel failover: after DeadAir consecutive unusable
	// reads on one channel during a Lookup the client declares the
	// channel dead and re-tunes its descent to the believed root channel
	// instead of retrying forever. ≤ 0 disables failover (the pre-outage
	// behavior); sim.DefaultDeadAir is the customary threshold. The
	// analytic twin's sim.Faults.DeadAir uses the same encoding. Range
	// scans never fail over.
	DeadAir int
	// Channels is the tower's channel count, which the failover protocol
	// needs to advance its root belief past a dead channel. Required when
	// DeadAir > 0.
	Channels int
	// Redial, when non-nil, arms crash reconnection: a transport failure
	// mid-session (the station process died under the socket) no longer
	// aborts the lookup — the client re-dials under the seeded Backoff
	// schedule, each attempt charging one Reconnect against the shared
	// retry budget, and resumes the protocol on the fresh connection.
	// Redial is called with the absolute slot the client will listen from
	// after this attempt; it returns a fresh connection, or an error when
	// the station is still down at that slot.
	Redial func(slot int) (net.Conn, error)
	// Backoff is the deterministic jittered backoff schedule spacing
	// reconnect attempts, in slots. The zero value uses the fault package
	// defaults; the seed makes the reconnect slot sequence — and hence
	// the resumed session's metrics — reproducible, which is what lets
	// the analytic twin model a crash byte for byte.
	Backoff fault.Backoff

	om clientObs
}

// clientObs bundles the client's instrument handles; all nil (no-op)
// until Instrument attaches a registry.
type clientObs struct {
	reg        *obs.Registry
	lookups    *obs.Counter
	batches    *obs.Counter
	reads      *obs.Counter
	retries    *obs.Counter
	restarts   *obs.Counter
	failovers  *obs.Counter
	reconnects *obs.Counter
	exhausted  *obs.Counter
}

// Instrument attaches an observability registry to the client: lookup
// and batch sessions, frame reads, retries, restarts, channel failovers,
// crash reconnects and budget exhaustions are counted, and
// batch/retry/restart/failover/reconnect trace events are emitted.
// Metrics returned to the caller are unaffected.
func (c *Client) Instrument(r *obs.Registry) {
	c.om = clientObs{
		reg:        r,
		lookups:    r.Counter("client_lookups_total"),
		batches:    r.Counter("client_batches_total"),
		reads:      r.Counter("client_reads_total"),
		retries:    r.Counter("client_retries_total"),
		restarts:   r.Counter("client_restarts_total"),
		failovers:  r.Counter("client_failovers_total"),
		reconnects: r.Counter("client_reconnects_total"),
		exhausted:  r.Counter("client_budget_exhausted_total"),
	}
}

// trace emits one charged recovery as a trace event.
func (o *clientObs) trace(r sim.Recovery, channel, slot, attempt int) {
	ch, at := obs.A("channel", int64(channel)), obs.A("slot", int64(slot))
	switch r {
	case sim.Retry:
		o.reg.Emit("retry", ch, at)
	case sim.Restart:
		o.reg.Emit("restart", ch, at)
	case sim.Failover:
		o.reg.Emit("failover", ch, at)
	default:
		o.reg.Emit("reconnect", at, obs.A("attempt", int64(attempt)))
	}
}

// settle books a finished session: each counter grows by the matching
// Metrics field, and a session that ran out of budget is counted.
func (o *clientObs) settle(m sim.Metrics, err error) {
	o.reads.Add(int64(m.TuningTime))
	o.retries.Add(int64(m.Retries))
	o.restarts.Add(int64(m.Restarts))
	o.failovers.Add(int64(m.Failovers))
	o.reconnects.Add(int64(m.Reconnects))
	if errors.Is(err, fault.ErrRetryBudget) {
		o.exhausted.Inc()
	}
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Dial connects to a TCP netcast server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Close detaches from the server and closes the connection.
func (c *Client) Close() error {
	c.detach()
	return c.conn.Close()
}

// detach tells the server to stop waiting for this radio; errors are
// irrelevant (the connection may already be gone).
func (c *Client) detach() {
	_ = c.request(detachChannel, 0)
}

func (c *Client) request(channel, slot int) error {
	req := appendRequest(make([]byte, 0, requestSize), channel, slot)
	_, err := c.conn.Write(req)
	return err
}

// tuner runs one session of the client protocol over this connection.
func (c *Client) tuner() *sim.Tuner {
	t := &sim.Tuner{
		Medium:   c.medium(),
		Faults:   sim.Faults{MaxRetries: c.MaxRetries, DeadAir: c.DeadAir, Backoff: c.Backoff},
		Channels: c.Channels,
	}
	if c.om.reg != nil {
		t.Trace = c.om.trace
	}
	return t
}

// Lookup retrieves the item with the given key, arriving at the given
// absolute slot, and returns the label of the data bucket the descent
// ended on. It runs the protocol's point walk (sim.Tuner.Lookup): probe
// the believed root channel, synchronize or start from a root copy,
// then descend by advertised key ranges.
//
//   - A lost or corrupt frame is retried at the same cycle slot one
//     cycle later (Metrics.Retries).
//   - On an adaptive broadcast a bucket from a newer epoch than the
//     descent started in means its pointers are stale: the client
//     restarts from the next slot (Metrics.Restarts).
//   - With DeadAir > 0 a channel that serves DeadAir consecutive
//     unusable slots is declared dead and the client re-probes on its
//     belief of the root channel (Metrics.Failovers).
//   - With Redial armed a transport failure is a station crash: the
//     client reconnects under the seeded backoff (Metrics.Reconnects)
//     and re-probes from the reconnect slot.
//
// Every recovery draws on the one MaxRetries budget.
//
// A lookup is one session: it detaches from the broadcast when it
// finishes so the server never waits on an idle radio. Run further
// lookups over fresh connections.
func (c *Client) Lookup(arrival int, key int64, pw sim.Power) (found bool, label string, m sim.Metrics, err error) {
	defer c.detach()
	if c.DeadAir > 0 && c.Channels < 1 {
		return false, "", m, fmt.Errorf("netcast: DeadAir %d requires Channels to be set", c.DeadAir)
	}
	c.om.lookups.Inc()
	c.om.reg.Emit("tune", obs.A("arrival", int64(arrival)), obs.A("key", key))
	found, label, m, err = c.tuner().Lookup(arrival, key, pw)
	c.om.settle(m, err)
	return found, label, m, err
}

// LookupRange retrieves every item with a key in [lo, hi] through the
// protocol's range scan (sim.Tuner.LookupRange): a frontier of
// advertised subtree pointers visited in slot order, a lost frontier
// read re-queued one cycle later, and a re-scan from a fresh probe after
// an epoch swap or a station crash. Range scans never fail over. Like
// Lookup, a range scan is one session: it detaches when done.
func (c *Client) LookupRange(arrival int, lo, hi int64, pw sim.Power) (keys []int64, m sim.Metrics, err error) {
	defer c.detach()
	if lo > hi {
		return nil, m, fmt.Errorf("netcast: empty range [%d, %d]", lo, hi)
	}
	c.om.lookups.Inc()
	c.om.reg.Emit("tune", obs.A("arrival", int64(arrival)), obs.A("lo", lo), obs.A("hi", hi))
	keys, m, err = c.tuner().LookupRange(arrival, lo, hi, pw)
	c.om.settle(m, err)
	return keys, m, err
}

// ReadBatch executes a single-antenna batch plan through the protocol's
// batch executor (sim.Tuner.ReadBatch), the one sim.Program.QueryBatch
// runs: one wake-up per scheduled read, lost frames retried one cycle
// later, a station crash (with Redial armed) answered by a reconnect and
// a re-request of the in-flight step, and a read from a different epoch
// than the first failing the batch with sim.ErrStalePlan. Plans with
// more than one antenna are rejected: one connection is one radio (run
// one connection per antenna instead).
//
// Like Lookup, a batch is one session: the client detaches when it
// finishes, successfully or not.
func (c *Client) ReadBatch(plan *sim.BatchPlan, pw sim.Power) (sim.Metrics, error) {
	defer c.detach()
	if plan == nil || len(plan.Steps) == 0 {
		return sim.Metrics{}, fmt.Errorf("netcast: %w: no steps", sim.ErrBadPlan)
	}
	if plan.Antennas > 1 {
		return sim.Metrics{}, fmt.Errorf("netcast: %w: %d antennas over one connection (one radio per connection)",
			sim.ErrBadPlan, plan.Antennas)
	}
	c.om.batches.Inc()
	c.om.reg.Emit("batch",
		obs.A("arrival", int64(plan.Arrival)),
		obs.A("keys", int64(len(plan.Steps))),
		obs.A("conflicts", int64(plan.Conflicts)))
	m, err := c.tuner().ReadBatch(plan, pw)
	c.om.settle(m, err)
	return m, err
}

// socket is the connection as a sim.Medium: one request and one frame
// per wake-up. The tower owns the catch-up rule, the loss model and dead
// air; a transport failure is a station crash when Redial is armed.
type socket struct {
	c *Client
	// now is the last slot the radio heard, raised on a redial to the
	// slot before the one it listens from.
	now int
	// heard and ptrs back the heard frame, reused across reads.
	heard sim.Bucket
	ptrs  []sim.Pointer
}

func (c *Client) medium() *socket { return &socket{c: c, now: -1} }

// frameKind maps the wire's bucket kinds onto the protocol's.
var frameKind = [...]sim.Kind{
	wire.KindEmpty: sim.KindEmpty,
	wire.KindIndex: sim.KindIndex,
	wire.KindData:  sim.KindData,
}

func (s *socket) Read(ch, slot int) (int, sim.Frame, sim.Outcome, error) {
	for {
		if err := s.c.request(ch, slot); err != nil {
			return s.drop(err)
		}
		got, payload, err := readFrame(s.c.br)
		if err != nil {
			return s.drop(err)
		}
		if got <= s.now {
			// A warm-restarted tower resumes at its checkpointed cycle
			// boundary and airs again slots before the reconnect slot,
			// which the radio cannot hear: catch the next occurrence.
			slot = got
			continue
		}
		s.now = got
		if len(payload) == 0 {
			return got, sim.Frame{}, sim.Lost, nil
		}
		b, err := wire.Unmarshal(payload)
		if err != nil {
			return got, sim.Frame{}, sim.Lost, nil // the CRC caught a corrupt frame
		}
		s.ptrs = s.ptrs[:0]
		for _, p := range b.Pointers {
			s.ptrs = append(s.ptrs, sim.Pointer{Channel: int(p.Channel), Offset: int(p.Offset),
				Target: tree.None, KeyLo: p.KeyLo, KeyHi: p.KeyHi})
		}
		s.heard = sim.Bucket{Node: tree.None, Kind: frameKind[b.Kind], Root: b.RootCopy, Key: b.Key,
			Label: b.Label, Children: s.ptrs, NextCycle: int(b.NextCycle)}
		root := int(b.RootChannel)
		if root == 0 {
			root = 1 // v2/v3 frames are unstamped: the channel-1 default
		}
		return got, sim.Frame{Bucket: &s.heard, Epoch: b.Epoch, RootChannel: root}, sim.Heard, nil
	}
}

// drop reports a transport failure: a station crash the session
// reconnects from when Redial is armed, the end of the session otherwise.
func (s *socket) drop(err error) (int, sim.Frame, sim.Outcome, error) {
	if s.c.Redial == nil {
		return 0, sim.Frame{}, sim.Lost, err
	}
	return 0, sim.Frame{}, sim.Dropped, nil
}

func (s *socket) Redial(slot int) bool {
	conn, err := s.c.Redial(slot)
	if err != nil {
		return false // the station is still down at slot
	}
	s.c.conn.Close()
	s.c.conn, s.c.br = conn, bufio.NewReader(conn)
	s.now = max(s.now, slot-1)
	return true
}
