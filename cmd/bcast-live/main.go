// Command bcast-live runs the whole system for real: it optimizes a tree,
// serves the wire-encoded broadcast over TCP on a loopback port, spawns
// concurrent clients that perform keyed lookups through the socket
// protocol, and cross-checks every measured metric against the analytic
// simulator. With -drop/-corrupt/-stall the broadcast medium is degraded
// by the seeded fault model and the cross-check runs against the analytic
// lossy simulator instead — the metrics, including retry counts, must
// still match exactly.
//
// With -outage CH:START:END (repeatable via commas) channels go dark for
// whole windows of absolute slots: the tower's missed-tick watchdog
// detects each outage, replans the catalog onto the surviving channels,
// hot-swaps the survivor program at a cycle boundary, and replans back
// to full width on recovery — while every client survives the dead air
// through the failover protocol. The cross-check runs against the
// analytic outage twin, Failovers included.
//
// With -batch k1,k2,... every client retrieves that whole key set in one
// session: the conflict-aware planner computes a tune schedule across
// channels (exact DP for small batches, greedy above), the analytic twin
// predicts the metrics — conflicts and extra cycles included — and the
// client executes the plan over the socket with ReadBatch. Live and
// analytic metrics must match byte for byte, lossy medium or not.
//
// With -kill SLOT the station is crash-tested for real: the tower
// checkpoints its epoch state at every cycle boundary, the process
// tears it down — sockets and all — the moment the broadcast clock
// reaches SLOT, and a fresh tower warm-starts from the checkpoint after
// -restart-after slots of downtime, rebinding the same port. Every
// client rides through the crash with the reconnect protocol (seeded
// exponential backoff against the same port) and is cross-checked
// against the analytic restart twin, Reconnects included.
//
// With -obs addr the process serves its observability endpoint — JSON
// metrics at /metrics, recent trace events at /trace, and net/http/pprof
// under /debug/pprof/ — and dumps a final text snapshot of every metric
// to stderr on shutdown. Bind loopback: the endpoint is unauthenticated.
// Observation never changes behavior; the metrics cross-checked against
// the simulator stay byte-identical with or without -obs.
//
// Example:
//
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -clients 8
//	bcast-gen -type catalog -n 12 | bcast-live -clients 4 -drop 0.2 -corrupt 0.1
//	bcast-gen -type catalog -n 12 | bcast-live -swap 9 -obs 127.0.0.1:0
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -outage 1:10:40 -clients 6
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -batch 1,4,7,9 -clients 4
//	bcast-gen -type catalog -n 12 | bcast-live -k 2 -kill 12 -restart-after 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/alphatree"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/netcast"
	"repro/internal/obs"
	"repro/internal/retrieval"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// liveOpts carries the command-line configuration into run.
type liveOpts struct {
	k       int
	clients int
	seed    int64
	// drop/corrupt/stall are the per-slot fault probabilities of the
	// injected lossy-channel model (all zero = perfect medium).
	drop, corrupt, stall float64
	// retries bounds redundant wake-ups per lookup (0 = the default).
	retries int
	// swap, when positive, stages a re-optimized epoch-2 program (same
	// keys, rotated weights) once the broadcast clock reaches that slot;
	// the tower hot-swaps it at the next cycle boundary and every client
	// is cross-checked against the adaptive analytic simulator instead,
	// including its Restarts count.
	swap int
	// outages is the channel-outage schedule (empty = no outages);
	// watchdog the tower's missed-tick threshold (0 = default, negative
	// disables replanning); deadAir the client's consecutive-unusable-read
	// failover threshold (0 = default, negative disables failover).
	outages           fault.Outages
	watchdog, deadAir int
	// batchKeys, when non-empty, switches every client to one planned
	// multi-key retrieval of exactly these keys instead of a single
	// random lookup.
	batchKeys []int64
	// kill, when positive, crash-tests the station: the tower is torn
	// down when the broadcast clock reaches that slot and warm-started
	// from its checkpoint after restartAfter slots of downtime, while
	// every client reconnects through the seeded backoff.
	kill, restartAfter int
	// obs, when non-nil, receives server and client metrics and trace
	// events; main wires it to the -obs HTTP endpoint.
	obs *obs.Registry
}

func main() {
	var (
		in  = flag.String("tree", "", "tree JSON file (default stdin); must be keyed (bcast-gen -type catalog)")
		opt liveOpts
	)
	flag.IntVar(&opt.k, "k", 2, "number of broadcast channels")
	flag.IntVar(&opt.clients, "clients", 5, "concurrent lookup clients")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for client arrivals, keys and fault outcomes")
	flag.Float64Var(&opt.drop, "drop", 0, "per-slot frame loss probability")
	flag.Float64Var(&opt.corrupt, "corrupt", 0, "per-slot bit-corruption probability")
	flag.Float64Var(&opt.stall, "stall", 0, "per-slot delivery stall probability")
	flag.IntVar(&opt.retries, "retries", 0, "retry budget per lookup (0 = default)")
	flag.IntVar(&opt.swap, "swap", 0, "stage a rebuilt epoch-2 program at this slot and hot-swap it on air (0 = static broadcast)")
	outageSpec := flag.String("outage", "", "channel-outage windows CH:START:END, comma-separated (e.g. 1:10:40,2:60:80)")
	batchSpec := flag.String("batch", "", "retrieve these comma-separated keys as one planned batch per client (e.g. 1,4,7)")
	flag.IntVar(&opt.kill, "kill", 0, "crash the station when the broadcast clock reaches this slot and warm-restart it from its checkpoint (0 = no crash)")
	flag.IntVar(&opt.restartAfter, "restart-after", 5, "downtime in slots between the -kill crash and the warm restart")
	flag.IntVar(&opt.watchdog, "watchdog", 0, "missed-tick threshold before the tower replans (0 = default, negative = no replanning)")
	flag.IntVar(&opt.deadAir, "deadair", 0, "consecutive unusable reads before a client fails over (0 = default, negative = no failover)")
	obsAddr := flag.String("obs", "", "serve /metrics, /trace and /debug/pprof on this address (bind loopback, e.g. 127.0.0.1:0)")
	flag.Parse()
	var err error
	if opt.outages, err = parseOutages(*outageSpec); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
	if opt.batchKeys, err = parseBatchKeys(*batchSpec); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
	var obsSrv *obs.Server
	if *obsAddr != "" {
		opt.obs = obs.NewWithOptions(obs.Options{Clock: func() int64 { return time.Now().UnixNano() }})
		if obsSrv, err = obs.Serve(*obsAddr, opt.obs); err != nil {
			fmt.Fprintln(os.Stderr, "bcast-live:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/metrics\n", obsSrv.Addr())
	}
	err = run(*in, opt, os.Stdout)
	if obsSrv != nil {
		obsSrv.Close()
		fmt.Fprintln(os.Stderr, "\nobs: final metrics snapshot")
		opt.obs.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcast-live:", err)
		os.Exit(1)
	}
}

func run(in string, opt liveOpts, w io.Writer) error {
	var data []byte
	var err error
	if in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	t, err := tree.ParseJSON(data)
	if err != nil {
		return err
	}
	if !t.Keyed() {
		return fmt.Errorf("tree must be keyed for live lookups (use bcast-gen -type catalog)")
	}
	sol, err := core.Solve(t, core.Config{Channels: opt.k})
	if err != nil {
		return err
	}
	// Root copies make the first channel's idle slots useful, give the
	// hot-swap demo the boundary-straddling descents that restart, and
	// give failed-over clients a root to re-tune to during an outage.
	prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: opt.swap > 0 || opt.outages.Enabled() || opt.kill > 0})
	if err != nil {
		return err
	}
	demos := 0
	for _, on := range []bool{len(opt.batchKeys) > 0, opt.outages.Enabled(), opt.swap > 0, opt.kill > 0} {
		if on {
			demos++
		}
	}
	if demos > 1 {
		return fmt.Errorf("-batch, -swap, -outage and -kill are separate demos; pick one")
	}
	if len(opt.batchKeys) > 0 {
		return runBatch(t, prog, opt, w)
	}
	if opt.outages.Enabled() {
		return runOutage(t, prog, opt, w)
	}
	if opt.swap > 0 {
		return runAdaptive(t, prog, opt, w)
	}
	if opt.kill > 0 {
		return runRestart(t, prog, opt, w)
	}

	model := medium(opt)
	server, err := netcast.NewServerOpts(prog, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	addr, err := serve(server)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, prog.CycleLen())
	tl, err := sim.NewTimeline(prog, 0)
	if err != nil {
		return err
	}
	return lookupDemo{
		twin:     "analytic",
		addr:     addr,
		tl:       tl,
		f:        sim.Faults{Model: model, MaxRetries: opt.retries},
		arrivals: 2 * prog.CycleLen(),
		// Drive the broadcast once every client is connected, so nobody's
		// arrival slot can pass before they are registered. The tick
		// budget covers the worst case of every client exhausting its
		// retry budget.
		drive: func(<-chan struct{}) error {
			server.AwaitConns(opt.clients)
			return server.Run((2*(opt.clients+2) + retryBudget(opt) + 8) * prog.CycleLen())
		},
	}.run(t, opt, w)
}

// medium is the seeded lossy-channel model the flags configure.
func medium(opt liveOpts) fault.Model {
	return fault.Model{Seed: opt.seed, Drop: opt.drop, Corrupt: opt.corrupt, Stall: opt.stall}
}

// retryBudget is the per-session recovery budget the flags configure.
func retryBudget(opt liveOpts) int {
	if opt.retries <= 0 {
		return sim.DefaultMaxRetries
	}
	return opt.retries
}

// serve starts the tower on a loopback port and returns its address.
func serve(s *netcast.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// describeMedium ends a demo's banner: the lossy-medium parameters, when
// any fault rate is set, and a blank line.
func describeMedium(w io.Writer, opt liveOpts) {
	if medium(opt).Enabled() {
		fmt.Fprintf(w, "lossy medium: drop %.2f, corrupt %.2f, stall %.2f (seed %d)\n",
			opt.drop, opt.corrupt, opt.stall, opt.seed)
	}
	fmt.Fprintln(w)
}

// lookupDemo is one twin-checked live lookup demo: clients dial the
// tower at addr, and the analytic timeline tl under faults f models what
// each of them must measure. Every mode differs only in the tower it
// builds, the arrival window, the client options it arms, how it drives
// the broadcast clock, and the one recovery counter it reports.
type lookupDemo struct {
	// twin names the simulator in the verdict line.
	twin string
	addr string
	tl   *sim.Timeline
	f    sim.Faults
	// arrivals bounds the client arrival slots to [0, arrivals).
	arrivals int
	// arm sets the mode's client options (nil = none).
	arm func(*netcast.Client)
	// drive runs the broadcast clock until the sessions are done; stop
	// closes once every client has reported.
	drive func(stop <-chan struct{}) error
	// column and counter add one recovery-counter column (empty = none).
	column  string
	counter func(sim.Metrics) int
	// report prefixes the verdict line given the column total (nil =
	// no prefix).
	report func(total int) string
}

// lookupOutcome is one live lookup and the twin's prediction for it.
type lookupOutcome struct {
	idx, arrival int
	key          int64
	found        bool
	m, want      sim.Metrics
	err, wantErr error
}

// run spawns opt.clients concurrent lookups of seeded random keys and
// checks every measured metric against the analytic twin.
func (d lookupDemo) run(t *tree.Tree, opt liveOpts, w io.Writer) error {
	describeMedium(w, opt)
	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)
	dataIDs := t.DataIDs()
	done := make(chan lookupOutcome, opt.clients)
	for i := 0; i < opt.clients; i++ {
		key, _ := t.Key(dataIDs[rng.Intn(len(dataIDs))])
		arrival := rng.Intn(d.arrivals)
		want, _, wantErr := d.tl.Query(arrival, key, power, d.f)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(o lookupOutcome) {
			c, err := netcast.Dial(d.addr)
			if err != nil {
				o.err = err
				done <- o
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Instrument(opt.obs)
			if d.arm != nil {
				d.arm(c)
			}
			o.found, _, o.m, o.err = c.Lookup(o.arrival, o.key, power)
			done <- o
		}(lookupOutcome{idx: i, arrival: arrival, key: key, want: want, wantErr: wantErr})
	}

	stop := make(chan struct{})
	driven := make(chan error, 1)
	go func() { driven <- d.drive(stop) }()
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	failures, total, err := d.collect(tw, done, opt.clients)
	close(stop)
	if err != nil {
		return err
	}
	if err := <-driven; err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the %s simulator", failures, opt.clients, d.twin)
	}
	prefix := ""
	if d.report != nil {
		prefix = d.report(total)
	}
	fmt.Fprintf(w, "\n%sall %d live lookups matched the %s simulator exactly\n", prefix, opt.clients, d.twin)
	return nil
}

// collect tabulates the clients' outcomes as they arrive, returning how
// many diverged from the twin and the total of the mode's counter.
func (d lookupDemo) collect(tw io.Writer, done <-chan lookupOutcome, clients int) (failures, total int, err error) {
	column, dashes := "", "-\t-\t-\t-\t-\t"
	if d.column != "" {
		column, dashes = d.column+"\t", dashes+"-\t"
	}
	fmt.Fprintf(tw, "client\tarrival\tkey\tfound\taccess\ttuning\tretries\t%senergy\tmatches simulator\n", column)
	for i := 0; i < clients; i++ {
		o := <-done
		if o.err != nil {
			// A budget exhaustion the analytic twin also predicts is an
			// agreement, not a failure.
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t%sbudget exhausted (as predicted)\n", o.idx, o.arrival, o.key, dashes)
				continue
			}
			return 0, 0, fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return 0, 0, fmt.Errorf("client %d: simulator predicted %v but the socket lookup succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match || !o.found {
			failures++
		}
		extra := ""
		if d.column != "" {
			n := d.counter(o.m)
			total += n
			extra = fmt.Sprintf("%d\t", n)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%d\t%d\t%d\t%s%.2f\t%v\n",
			o.idx, o.arrival, o.key, o.found, o.m.AccessTime, o.m.TuningTime, o.m.Retries, extra, o.m.Energy, match)
	}
	return failures, total, nil
}

// parseBatchKeys parses the -batch flag: comma-separated catalog keys.
func parseBatchKeys(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var keys []int64
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -batch key %q: %v", part, err)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// runBatch serves the broadcast while every client retrieves the whole
// -batch key set in one planned session: the conflict-aware planner
// schedules the reads across channels for each client's arrival, the
// analytic twin predicts the session's metrics, and the client executes
// the identical plan over the socket. Plan-level conflict accounting
// (targets spilled to later cycles) must agree on both paths.
func runBatch(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	byKey := make(map[int64]tree.ID, len(t.DataIDs()))
	for _, id := range t.DataIDs() {
		key, _ := t.Key(id)
		byKey[key] = id
	}
	targets := make([]tree.ID, len(opt.batchKeys))
	for i, key := range opt.batchKeys {
		id, ok := byKey[key]
		if !ok {
			return fmt.Errorf("-batch key %d is not in the catalog", key)
		}
		targets[i] = id
	}

	model := medium(opt)
	f := sim.Faults{Model: model, MaxRetries: opt.retries}
	cfg := retrieval.Config{Obs: opt.obs}
	if opt.obs != nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	planner := retrieval.New(cfg)
	server, err := netcast.NewServerOpts(prog, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	addr, err := serve(server)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, prog.CycleLen())
	fmt.Fprintf(w, "batch retrieval: %d keys per client %v\n", len(targets), opt.batchKeys)
	describeMedium(w, opt)

	power := sim.Power{Active: 1, Doze: 0.05}
	rng := stats.NewRNG(opt.seed)

	type outcome struct {
		idx     int
		arrival int
		m       sim.Metrics
		want    sim.Metrics
		err     error
		wantErr error
	}
	done := make(chan outcome, opt.clients)
	maxNeed := 0
	for i := 0; i < opt.clients; i++ {
		arrival := rng.Intn(2 * prog.CycleLen())
		plan, err := planner.PlanBatch(prog, arrival, targets)
		if err != nil {
			return err
		}
		if need := plan.Arrival + plan.Makespan(); need > maxNeed {
			maxNeed = need
		}
		want, wantErr := prog.QueryBatch(plan, power, f)
		if wantErr != nil && !errors.Is(wantErr, fault.ErrRetryBudget) {
			return wantErr
		}
		go func(idx, arrival int, plan *sim.BatchPlan, want sim.Metrics, wantErr error) {
			c, err := netcast.Dial(addr)
			if err != nil {
				done <- outcome{idx: idx, err: err}
				return
			}
			defer c.Close()
			c.MaxRetries = opt.retries
			c.Instrument(opt.obs)
			m, err := c.ReadBatch(plan, power)
			done <- outcome{idx, arrival, m, want, err, wantErr}
		}(i, arrival, plan, want, wantErr)
	}

	go func() {
		server.AwaitConns(opt.clients)
		server.Run(maxNeed + (2*(opt.clients+2)+retryBudget(opt)+8)*prog.CycleLen())
	}()

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "client\tarrival\tkeys\taccess\tprobe\ttuning\tretries\tconflicts\textra cycles\tenergy\tmatches simulator")
	failures, conflicts := 0, 0
	for i := 0; i < opt.clients; i++ {
		o := <-done
		if o.err != nil {
			if errors.Is(o.err, fault.ErrRetryBudget) && errors.Is(o.wantErr, fault.ErrRetryBudget) {
				fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\t-\t-\t-\tbudget exhausted (as predicted)\n",
					o.idx, o.arrival, len(targets))
				continue
			}
			return fmt.Errorf("client %d: %w", o.idx, o.err)
		}
		if o.wantErr != nil {
			return fmt.Errorf("client %d: simulator predicted %v but the socket batch succeeded", o.idx, o.wantErr)
		}
		match := o.m == o.want
		if !match {
			failures++
		}
		conflicts += o.m.Conflicts
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%v\n",
			o.idx, o.arrival, len(targets), o.m.AccessTime, o.m.ProbeWait, o.m.TuningTime,
			o.m.Retries, o.m.Conflicts, o.m.ExtraCycles, o.m.Energy, match)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d clients diverged from the batch simulator", failures, opt.clients)
	}
	fmt.Fprintf(w, "\n%d conflicts rescheduled; all %d live batch retrievals matched the analytic simulator exactly\n",
		conflicts, opt.clients)
	return nil
}

// rebuildRotated re-optimizes the same catalog under rotated demand: each
// key inherits its successor's weight, the shifting-popularity workload a
// real tower re-plans for. Keys and channel count are unchanged, so the
// epoch-2 tree is a legal hot-swap target.
func rebuildRotated(t *tree.Tree, channels int) (*sim.Program, error) {
	ids := t.DataIDs()
	items := make([]alphatree.Item, len(ids))
	for i, id := range ids {
		key, _ := t.Key(id)
		items[i] = alphatree.Item{Label: t.Label(id), Key: key, Weight: t.Weight(id)}
	}
	weights := make([]float64, len(items))
	for i := range items {
		weights[i] = items[(i+1)%len(items)].Weight
	}
	for i := range items {
		items[i].Weight = weights[i]
	}
	next, err := alphatree.HuTucker(items)
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(next, core.Config{Channels: channels})
	if err != nil {
		return nil, err
	}
	return sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: true})
}

// runAdaptive serves the epoch-versioned broadcast: prog airs as epoch 1,
// a rebuilt program is staged once the clock reaches opt.swap, the tower
// swaps it in at the next cycle boundary, and every client — whose
// descent may straddle the swap and restart — is cross-checked against
// the adaptive analytic simulator, Restarts included.
func runAdaptive(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	prog2, err := rebuildRotated(t, opt.k)
	if err != nil {
		return err
	}
	tl, err := sim.NewTimeline(prog, 1)
	if err != nil {
		return err
	}
	swapSlot, err := tl.Append(prog2, 2, opt.swap)
	if err != nil {
		return err
	}

	model := medium(opt)
	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	server, err := netcast.NewAdaptiveServer(reg, netcast.ServerOptions{
		Faults:   model,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
	})
	if err != nil {
		return err
	}
	defer server.Close()
	addr, err := serve(server)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (epoch 1, cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, prog.CycleLen())
	fmt.Fprintf(w, "hot swap: epoch 2 (cycle %d slots) staged at slot %d, lands at cycle boundary %d\n",
		prog2.CycleLen(), opt.swap, swapSlot)
	return lookupDemo{
		twin: "adaptive",
		addr: addr,
		tl:   tl,
		f:    sim.Faults{Model: model, MaxRetries: opt.retries},
		// Arrivals cluster around the swap so descents straddle it.
		arrivals: swapSlot + 2*prog2.CycleLen(),
		drive: func(<-chan struct{}) error {
			server.AwaitConns(opt.clients)
			if err := server.Run(opt.swap); err != nil {
				return err
			}
			if _, err := reg.Stage(prog2); err != nil {
				return err
			}
			return server.Run(swapSlot - opt.swap + (2*(opt.clients+2)+retryBudget(opt)+8)*(prog.CycleLen()+prog2.CycleLen()))
		},
		column:  "restarts",
		counter: func(m sim.Metrics) int { return m.Restarts },
		report: func(restarts int) string {
			return fmt.Sprintf("swaps landed: %d; %d descent restarts; ", server.Swaps(), restarts)
		},
	}.run(t, opt, w)
}

// runRestart crash-tests the station: the tower checkpoints at every
// cycle boundary, dies — listener, sockets and all — the moment its
// clock reaches opt.kill, and a fresh process warm-starts from the
// checkpoint on the same port once the downtime window has passed.
// Clients that were mid-session reconnect under the seeded backoff and
// finish against the restored broadcast; every session is cross-checked
// against the analytic restart twin, Reconnects included.
func runRestart(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	dir, err := os.MkdirTemp("", "bcast-live-ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sopts := netcast.ServerOptions{
		Faults:         medium(opt),
		StallFor:       time.Millisecond,
		Obs:            opt.obs,
		CheckpointPath: dir + "/station.ckpt",
		Resume:         true,
	}
	down := fault.Downtime{StartSlot: opt.kill, EndSlot: opt.kill + opt.restartAfter}
	bo := fault.Backoff{Seed: opt.seed}
	f := sim.Faults{
		Model:      sopts.Faults,
		Downtimes:  fault.Downtimes{down},
		Backoff:    bo,
		MaxRetries: opt.retries,
	}
	tl, err := sim.NewTimeline(prog, 0)
	if err != nil {
		return err
	}

	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	server, err := netcast.NewAdaptiveServer(reg, sopts)
	if err != nil {
		return err
	}
	addr, err := serve(server)
	if err != nil {
		return err
	}

	// station guards the kill/warm-restart transition: a client redial
	// observed after the crash blocks here until the new tower is
	// accepting, and is refused while the downtime window holds.
	var station struct {
		mu     sync.Mutex
		cur    *netcast.Server
		killed bool
	}
	station.cur = server
	defer func() {
		station.mu.Lock()
		cur := station.cur
		station.mu.Unlock()
		if cur != nil {
			cur.Close()
		}
	}()
	redial := func(slot int) (net.Conn, error) {
		station.mu.Lock()
		defer station.mu.Unlock()
		if station.cur == nil || (station.killed && slot < down.EndSlot) {
			return nil, fmt.Errorf("station down at slot %d", slot)
		}
		return net.Dial("tcp", addr)
	}

	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, prog.CycleLen())
	fmt.Fprintf(w, "crash test: station dies at slot %d, warm-starts from its checkpoint at slot %d\n",
		down.StartSlot, down.EndSlot)

	// Drive the broadcast by hand: tick only while a session is in
	// flight (a free-running clock would outpace reconnecting clients),
	// and fire the crash the moment the clock reaches the kill slot.
	drive := func(stop <-chan struct{}) error {
		server.AwaitConns(opt.clients)
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			station.mu.Lock()
			cur := station.cur
			station.mu.Unlock()
			if !station.killed && cur.Now() >= down.StartSlot {
				station.mu.Lock()
				cur.Close()
				reg2, err := epoch.NewRegistry(prog)
				if err == nil {
					station.cur, err = netcast.NewAdaptiveServer(reg2, sopts)
				}
				if err != nil {
					station.cur = nil
					station.mu.Unlock()
					return err
				}
				ln2, err := net.Listen("tcp", addr)
				if err != nil {
					station.mu.Unlock()
					return err
				}
				station.cur.Serve(ln2)
				station.killed = true
				warm := station.cur.Warm()
				clock := station.cur.Now()
				station.mu.Unlock()
				fmt.Fprintf(w, "station killed at slot %d; warm=%v, resumed at boundary %d\n\n",
					down.StartSlot, warm, clock)
				continue
			}
			if cur.Conns() > 0 {
				if err := cur.Tick(); err != nil {
					return err
				}
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	return lookupDemo{
		twin: "restart",
		addr: addr,
		tl:   tl,
		f:    f,
		// Arrivals spread up to the crash so sessions straddle it.
		arrivals: opt.kill + prog.CycleLen(),
		arm: func(c *netcast.Client) {
			c.Backoff = bo
			c.Redial = redial
		},
		drive:   drive,
		column:  "reconnects",
		counter: func(m sim.Metrics) int { return m.Reconnects },
		report: func(reconnects int) string {
			return fmt.Sprintf("%d client reconnects; ", reconnects)
		},
	}.run(t, opt, w)
}

// parseOutages parses the -outage flag: comma-separated CH:START:END
// windows of absolute slots.
func parseOutages(s string) (fault.Outages, error) {
	if s == "" {
		return nil, nil
	}
	var out fault.Outages
	for _, part := range strings.Split(s, ",") {
		var o fault.Outage
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d:%d", &o.Channel, &o.StartSlot, &o.EndSlot); err != nil {
			return nil, fmt.Errorf("bad outage %q (want CH:START:END): %v", part, err)
		}
		out = append(out, o)
	}
	return out, out.Validate()
}

// runOutage serves the broadcast while channels suffer the scheduled
// outages: the tower's watchdog detects each window, replans the catalog
// onto the survivors (staged through the epoch registry and hot-swapped
// at a cycle boundary), and replans back to full width on recovery.
// Clients arm the failover protocol and every session is cross-checked
// against the analytic outage twin — the timeline carrying the same
// replans at the same detection slots — Failovers included.
func runOutage(t *tree.Tree, prog *sim.Program, opt liveOpts, w io.Writer) error {
	wdog := opt.watchdog
	if wdog == 0 {
		wdog = netcast.DefaultWatchdog
	}
	deadAir := opt.deadAir
	if deadAir == 0 {
		deadAir = sim.DefaultDeadAir
	}
	L := prog.CycleLen()
	maxEnd := 0
	for _, o := range opt.outages {
		if o.EndSlot > maxEnd {
			maxEnd = o.EndSlot
		}
	}
	// The tick budget covers every client exhausting its retry budget
	// past the last window; detections are replayed over the same span so
	// tower and twin see the identical schedule.
	runSlots := maxEnd + (2*(opt.clients+2)+retryBudget(opt)+8)*L
	events := opt.outages.Detections(opt.k, wdog, runSlots)
	progs, err := experiment.ReplanPrograms(prog, events, opt.k)
	if err != nil {
		return err
	}
	tl, replans, err := experiment.ReplanTimeline(prog, events, progs)
	if err != nil {
		return err
	}

	model := medium(opt)
	reg, err := epoch.NewRegistry(prog)
	if err != nil {
		return err
	}
	idx := 0
	server, err := netcast.NewAdaptiveServer(reg, netcast.ServerOptions{
		Faults:   model,
		Outages:  opt.outages,
		Watchdog: wdog,
		StallFor: time.Millisecond,
		Obs:      opt.obs,
		OnLiveChange: func(live []int, slot int) {
			if idx < len(progs) {
				reg.Stage(progs[idx])
				idx++
			}
		},
	})
	if err != nil {
		return err
	}
	defer server.Close()
	addr, err := serve(server)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcasting %d nodes over %d channels at %s (cycle %d slots)\n",
		t.NumNodes(), opt.k, addr, L)
	fmt.Fprintf(w, "outages: %v; watchdog %d, dead air %d, %d replans will air\n",
		opt.outages, wdog, deadAir, replans)
	return lookupDemo{
		twin: "outage",
		addr: addr,
		tl:   tl,
		f:    sim.Faults{Model: model, Outages: opt.outages, MaxRetries: opt.retries, DeadAir: deadAir},
		// Arrivals spread across the outage windows so sessions hit dead
		// air before, during, and after the replans.
		arrivals: maxEnd + 2*L,
		arm: func(c *netcast.Client) {
			c.DeadAir = deadAir
			c.Channels = opt.k
		},
		drive: func(<-chan struct{}) error {
			server.AwaitConns(opt.clients)
			return server.Run(runSlots)
		},
		column:  "failovers",
		counter: func(m sim.Metrics) int { return m.Failovers },
		report: func(failovers int) string {
			return fmt.Sprintf("swaps landed: %d; channels live: %v; %d channel failovers; ",
				server.Swaps(), server.ChannelsLive(), failovers)
		},
	}.run(t, opt, w)
}
