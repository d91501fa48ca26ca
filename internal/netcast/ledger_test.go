package netcast

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/retrieval"
	"repro/internal/sim"
)

// clientLedger sums the Metrics of every session run on one registry,
// the figures the client_* counters must reproduce.
type clientLedger struct {
	sum                         sim.Metrics
	lookups, batches, exhausted int
}

func (l *clientLedger) add(m sim.Metrics, err error) {
	l.sum.TuningTime += m.TuningTime
	l.sum.Retries += m.Retries
	l.sum.Restarts += m.Restarts
	l.sum.Failovers += m.Failovers
	l.sum.Reconnects += m.Reconnects
	if errors.Is(err, fault.ErrRetryBudget) {
		l.exhausted++
	}
}

// TestClientObsLedger runs mixed sessions on one registry — loss, an
// epoch swap mid-descent, a channel outage with failover armed, a station
// crash with Redial, point, range and batch sessions, and a budget
// exhaustion — and pins the client ledger: every client_* counter equals
// the sum of the matching Metrics field over the sessions, the exhausted
// counter equals the sessions that ended in fault.ErrRetryBudget, and each
// recovery is traced once under its event kind with its attributes.
func TestClientObsLedger(t *testing.T) {
	r := obs.NewWithOptions(obs.Options{TraceCap: 1 << 20})
	var l clientLedger

	// drive runs one instrumented session against a fresh static server.
	drive := func(s *Server, setup func(*Client), do func(*Client) (sim.Metrics, error)) {
		t.Helper()
		defer s.Close()
		c := pipeClient(t, s)
		defer c.Close()
		c.Instrument(r)
		setup(c)
		done := make(chan outageOutcome, 1)
		go func() {
			m, err := do(c)
			done <- outageOutcome{m: m, err: err}
		}()
		out := driveUntil(t, s, done)
		l.add(out.m, out.err)
	}
	lookup := func(arrival int, key int64) func(*Client) (sim.Metrics, error) {
		return func(c *Client) (sim.Metrics, error) {
			l.lookups++
			_, _, m, err := c.Lookup(arrival, key, pw)
			return m, err
		}
	}
	server := func(p *sim.Program, opts ServerOptions) *Server {
		t.Helper()
		s, err := NewServerOpts(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Loss: point, range and batch sessions on a lossy medium.
	p := compiled(t, 8, 2, 31, true)
	L := p.CycleLen()
	lossy := ServerOptions{Faults: fault.Model{Seed: 3, Drop: 0.3}}
	budget64 := func(c *Client) { c.MaxRetries = 64 }
	for arrival := 0; arrival < L; arrival++ {
		drive(server(p, lossy), budget64, lookup(arrival, int64(arrival%9+1)))
	}
	drive(server(p, lossy), budget64, func(c *Client) (sim.Metrics, error) {
		l.lookups++
		_, m, err := c.LookupRange(2, 2, 6, pw)
		return m, err
	})
	bp := compiled(t, 9, 2, 21, false)
	plan, err := retrieval.New(retrieval.Config{}).PlanBatch(bp, 0, bp.Tree().DataIDs()[1:6])
	if err != nil {
		t.Fatal(err)
	}
	drive(server(bp, lossy), budget64, func(c *Client) (sim.Metrics, error) {
		l.batches++
		return c.ReadBatch(plan, pw)
	})

	// A swap mid-descent: restarts.
	p1 := compiled(t, 10, 3, 1, true)
	p2 := compiled(t, 8, 3, 2, true)
	stageAt := p1.CycleLen() + 1
	swap := 2 * p1.CycleLen()
	for arrival := swap - p1.CycleLen(); arrival < swap; arrival++ {
		for key := int64(1); key <= 10; key += 3 {
			out := runAdaptive(t, p1, p2, stageAt, swap+8*(p1.CycleLen()+p2.CycleLen()), 0, ServerOptions{},
				func(c *Client) adaptiveOutcome {
					c.Instrument(r)
					l.lookups++
					found, _, m, err := c.Lookup(arrival, key, pw)
					return adaptiveOutcome{found: found, m: m, err: err}
				})
			l.add(out.m, out.err)
		}
	}

	// A channel outage with DeadAir: failovers.
	out := fault.Outages{{Channel: 1, StartSlot: L, EndSlot: 4 * L}}
	failover := func(c *Client) { c.MaxRetries, c.DeadAir, c.Channels = 64, sim.DefaultDeadAir, p.Channels() }
	for arrival := L; arrival < 2*L; arrival++ {
		drive(server(p, ServerOptions{Outages: out, Watchdog: -1}), failover, lookup(arrival, int64(arrival%9+1)))
	}

	// A station crash with Redial: reconnects.
	down := fault.Downtimes{{StartSlot: 2*L + 3, EndSlot: 2*L + 8}}
	for arrival := 2 * L; arrival < 2*L+4; arrival++ {
		h := newCrashHarness(t, p, down, ServerOptions{})
		c, _ := h.attach()
		c.MaxRetries = 64
		c.Backoff = fault.Backoff{Seed: 99, Base: 4, Cap: 32}
		c.Instrument(r)
		done := make(chan outageOutcome, 1)
		go func() {
			l.lookups++
			_, _, m, err := c.Lookup(arrival, 3, pw)
			done <- outageOutcome{m: m, err: err}
		}()
		got := h.drive(done, 0, nil)
		c.Close()
		h.close()
		l.add(got.m, got.err)
	}

	// One budget exhaustion: a dead medium and a budget of four.
	drive(server(p, ServerOptions{Faults: fault.Model{Seed: 5, Drop: 1}}),
		func(c *Client) { c.MaxRetries = 4 }, lookup(0, 3))

	if l.sum.Retries == 0 || l.sum.Restarts == 0 || l.sum.Failovers == 0 || l.sum.Reconnects == 0 || l.exhausted == 0 {
		t.Fatalf("a scenario did not fire: %+v, %d exhausted", l.sum, l.exhausted)
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{"client_reads_total", l.sum.TuningTime},
		{"client_retries_total", l.sum.Retries},
		{"client_restarts_total", l.sum.Restarts},
		{"client_failovers_total", l.sum.Failovers},
		{"client_reconnects_total", l.sum.Reconnects},
		{"client_lookups_total", l.lookups},
		{"client_batches_total", l.batches},
		{"client_budget_exhausted_total", l.exhausted},
	} {
		if got := r.Counter(c.name).Value(); got != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}

	// Each recovery is traced once, under its kind, with its attributes.
	traced := map[string]int{}
	for _, e := range r.Events(0) {
		var keys []string
		for _, a := range e.Attrs {
			keys = append(keys, a.Key)
		}
		want := map[string][]string{
			"retry":     {"channel", "slot"},
			"restart":   {"channel", "slot"},
			"failover":  {"channel", "slot"},
			"reconnect": {"slot", "attempt"},
		}[e.Kind]
		if want == nil {
			continue
		}
		traced[e.Kind]++
		if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
			t.Fatalf("%s event attrs %v, want %v", e.Kind, keys, want)
		}
	}
	for kind, want := range map[string]int{
		"retry": l.sum.Retries, "restart": l.sum.Restarts,
		"failover": l.sum.Failovers, "reconnect": l.sum.Reconnects,
	} {
		if traced[kind] != want {
			t.Errorf("%d %s events, want %d", traced[kind], kind, want)
		}
	}
}
