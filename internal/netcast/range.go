package netcast

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pqueue"
	"repro/internal/sim"
	"repro/internal/wire"
)

// LookupRange retrieves every item with a key in [lo, hi] through the
// socket protocol, mirroring the simulator's range client: a frontier of
// advertised subtree pointers is visited in arrival order, and a slot
// that has already passed (because the single receiver was reading a
// different channel) is caught on a later cycle by the server's cyclic
// catch-up. On a lossy broadcast a lost or corrupt frontier read is
// re-scheduled one cycle later through the same queue the simulator
// uses, so the two recovery schedules — and their metrics — coincide
// byte for byte.
//
// On an adaptive broadcast a bucket stamped with a newer epoch than the
// scan started in invalidates the whole frontier — its offsets address a
// program no longer on the air — so the client discards the partial key
// set, charges one restart against the retry budget (Metrics.Restarts)
// and re-scans from the new epoch's root. A station crash mid-scan (with
// Redial armed) is handled the same way: the client reconnects under the
// seeded backoff, discards the partial key set and re-scans from the
// reconnect slot — the frontier schedule it was following interleaved
// slots the dead station never aired. Like Lookup, a range scan is one
// session: it detaches when done.
//
// The probe follows the believed root channel exactly as Lookup does:
// the RootChannel stamp of every bucket read moves the belief, and the
// NextCycle pointer leads to the root in at most sim.MaxProbeRedirects
// jumps — so a scan also finds the root of a program remapped off
// channel 1 by a survivor replan.
func (c *Client) LookupRange(arrival int, lo, hi int64, pw sim.Power) (keys []int64, m sim.Metrics, err error) {
	defer c.detach()
	if lo > hi {
		return nil, m, fmt.Errorf("netcast: empty range [%d, %d]", lo, hi)
	}
	c.om.lookups.Inc()
	c.om.reg.Emit("tune", obs.A("arrival", int64(arrival)), obs.A("lo", lo), obs.A("hi", hi))
	type pend struct {
		at      int
		channel int
	}
	rootCh := 1
	probeAt := arrival
restartScan:
	for {
		// Probe the believed root channel and follow the RootChannel stamp
		// and NextCycle pointer to a root bucket, exactly as Lookup does.
		slot, b, err := c.read(rootCh, probeAt, &m)
		for redirects := 0; ; redirects++ {
			if err != nil {
				if w, rerr, ok := c.tryReconnect(&m, err); ok {
					if rerr != nil {
						return nil, m, rerr
					}
					probeAt = w
					continue restartScan
				}
				return nil, m, err
			}
			rootCh = rootBelief(b)
			if b.RootCopy {
				break
			}
			if redirects >= sim.MaxProbeRedirects {
				return nil, m, fmt.Errorf("netcast: %w after %d redirects", sim.ErrMissingRoot, redirects)
			}
			slot, b, err = c.read(rootCh, slot+max(int(b.NextCycle), 1), &m)
		}
		epoch := b.Epoch
		descentStart := slot
		m.ProbeWait = descentStart - arrival
		keys = keys[:0]

		q := pqueue.New(func(a, b pend) bool { return a.at < b.at })
		visit := func(at int, b *wire.Bucket) {
			if b.Kind == wire.KindData {
				if b.Key >= lo && b.Key <= hi {
					keys = append(keys, b.Key)
				}
				return
			}
			for _, p := range b.Pointers {
				if p.KeyLo <= hi && p.KeyHi >= lo {
					q.Push(pend{at: at + int(p.Offset), channel: int(p.Channel)})
				}
			}
		}
		visit(slot, b)

		now := slot
		guard := 0
		for q.Len() > 0 {
			next := q.Pop()
			// The server bumps passed slots to the next cyclic occurrence;
			// only the arrival timestamp on the frame is authoritative.
			if guard++; guard > 1<<16+c.budget() {
				return keys, m, fmt.Errorf("netcast: range scan did not terminate")
			}
			if err := c.request(next.channel, next.at); err != nil {
				if w, rerr, ok := c.tryReconnect(&m, c.dropped(next.at, err)); ok {
					if rerr != nil {
						return keys, m, rerr
					}
					// The frontier's offsets survive a crash (the warm
					// restart resumes the same program), but the partial
					// schedule does not: re-scan from the reconnect slot,
					// discarding the partial key set like an epoch restart.
					probeAt = w
					continue restartScan
				}
				return keys, m, err
			}
			at, payload, err := readFrame(c.br)
			if err != nil {
				if w, rerr, ok := c.tryReconnect(&m, c.dropped(next.at, err)); ok {
					if rerr != nil {
						return keys, m, rerr
					}
					probeAt = w
					continue restartScan
				}
				return keys, m, err
			}
			m.TuningTime++
			c.om.reads.Inc()
			if at > now {
				now = at
			}
			var nb *wire.Bucket
			if len(payload) != 0 {
				nb, err = wire.Unmarshal(payload)
			}
			if len(payload) == 0 || err != nil {
				// Lost slot or corrupt payload: burn the wake-up and
				// re-schedule the read; the catch-up bump lands it one
				// broadcast cycle later, exactly like the simulator.
				m.Retries++
				c.om.retries.Inc()
				c.om.reg.Emit("retry", obs.A("channel", int64(next.channel)), obs.A("slot", int64(at)))
				if m.Retries+m.Restarts+m.Failovers+m.Reconnects > c.budget() {
					c.om.exhausted.Inc()
					return keys, m, fmt.Errorf("netcast: channel %d slot %d: %w after %d redundant wake-ups",
						next.channel, at, fault.ErrRetryBudget, m.Retries-1)
				}
				q.Push(pend{at: at, channel: next.channel})
				continue
			}
			rootCh = rootBelief(nb)
			if nb.Epoch != epoch {
				if err := c.restart(&m, next.channel, at); err != nil {
					return keys, m, err
				}
				probeAt = at + 1
				continue restartScan
			}
			visit(at, nb)
		}
		m.DataWait = now - descentStart + 1
		finish(&m, pw)
		return keys, m, nil
	}
}
