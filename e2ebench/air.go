package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/broadcast"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/netcast"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The air workloads: a TCP tower on loopback and a closed loop of clients,
// each lookup a fresh Dial + Lookup(Server.Now(), key) + Close. The
// lookups run in batches; between batches no client is attached and the
// clock stands still.
const (
	channels = 4
	clients  = 2 // closed loop: each client sends its next lookup when the last returns
	airTheta = 0.8

	airKeys   = 256
	airFanout = 2
	// airLookupsPerSecond scales the fixed lookup count with --seconds.
	airLookupsPerSecond = 2400
	airBatch            = 400
	// airRebuildsPerBatch offline rebuilds of the catalog run before each
	// batch, so the rebuild samples spread over the whole run.
	airRebuildsPerBatch = 8

	swapKeys   = 1000
	swapFanout = 4
	swapStep   = 2 // ranks the Drift hot spot advances per period
	// swapLookupsPerSecond scales the lookup count; the benchmark stages the
	// next drift period once per swapEvery completed lookups.
	swapLookupsPerSecond = 1800
	swapBatch            = 450
	swapEvery            = 50

	// tickSample thins the traced tick timings: a run airs millions of
	// slots, most of them idle.
	tickSample = 8
)

// airCfg is the solver configuration of both air catalogs: Auto, which
// runs Index Tree Sorting at these sizes.
var airCfg = core.Config{Channels: channels}

// air holds the generated inputs of air (swap false) or air-swap.
type air struct {
	swap    bool
	fanout  int
	lookups int
	batch   int
	keys    []int64  // lookup i asks keys[i]
	labels  []string // labels[key-1] is the catalog label
	// weights[key-1] is the demand weight of drift period 0; period t
	// rotates it by t·swapStep keys. air has the one period.
	weights []float64
}

// airSys is one running tower.
type airSys struct {
	prog  *sim.Program // the catalog's program (air) or period 0's (air-swap)
	cost  float64      // its Formula-1 data wait
	reg   *epoch.Registry
	srv   *netcast.Server
	addr  string
	obs   *obs.Registry
	clock chan struct{} // closed when the clock goroutine has exited
	// tickNs holds the duration of every tickSample-th Tick on a traced
	// tower; only the clock goroutine writes it, and it is read after that
	// goroutine exits.
	tickNs []int64
}

func (s *airSys) stop() {
	s.srv.Close()
	<-s.clock
}

type lookupResult struct {
	arrival int
	found   bool
	label   string
	m       sim.Metrics
	err     error
	ns      int64
}

func newAir(seed int64, seconds int, swap bool) *air {
	rng := rand.New(rand.NewSource(seed))
	a := &air{swap: swap}
	if !swap {
		a.fanout, a.batch = airFanout, airBatch
		a.lookups = airLookupsPerSecond * seconds / a.batch * a.batch
		// A fixed catalog: key k carries Zipf(θ) weight of rank k, as
		// workload.Catalog builds it; the seed draws the lookups.
		w := make([]float64, airKeys)
		for i := range w {
			w[i] = 100 / math.Pow(float64(i+1), airTheta)
		}
		a.weights = w
		a.labels = make([]string, airKeys)
		for i := range a.labels {
			a.labels[i] = fmt.Sprintf("K%d", i+1)
		}
		z := newZipf(airKeys, airTheta)
		a.keys = make([]int64, a.lookups)
		for i := range a.keys {
			a.keys[i] = int64(z.rank(rng) + 1)
		}
		return a
	}
	a.fanout, a.batch = swapFanout, swapBatch
	a.lookups = swapLookupsPerSecond * seconds / a.batch * a.batch
	drift, err := workload.Drift(workload.DriftConfig{
		Kind: workload.HotspotRotate, Universe: swapKeys, Periods: 1, Theta: airTheta,
	})
	if err != nil {
		panic(err) // the configuration above is valid by construction
	}
	// HotspotRotate's period t is period 0 rotated by t·step keys, so
	// items(t) rotates period 0's weights instead of keeping every
	// period. The seed rotates where the hot spot starts.
	off := rng.Intn(swapKeys)
	w := make([]float64, swapKeys)
	a.labels = make([]string, swapKeys)
	for i, it := range drift[0] {
		w[(i+off)%swapKeys] = it.Weight
		a.labels[i] = it.Label
	}
	a.weights = w
	// Lookup i asks from the demand of the period staged at the start of
	// its swapEvery block: rank r of period t sits at key index
	// (r + off + t·step) mod n.
	z := newZipf(swapKeys, airTheta)
	a.keys = make([]int64, a.lookups)
	for i := range a.keys {
		t := min(i/swapEvery, a.rebuilds())
		a.keys[i] = int64((z.rank(rng)+off+t*swapStep)%swapKeys + 1)
	}
	return a
}

// items returns the catalog of drift period t.
func (a *air) items(t int) []broadcast.Item {
	n := len(a.labels)
	out := make([]broadcast.Item, n)
	for i := range out {
		w := a.weights[((i-t*swapStep)%n+n)%n]
		out[i] = broadcast.Item{Label: a.labels[i], Key: int64(i + 1), Weight: w}
	}
	return out
}

func (a *air) start(traced bool) (instance, error) {
	s := &airSys{}
	if traced {
		s.obs = obs.New()
	}
	prog, cost, err := buildPlan(a.items(0), a.fanout, airCfg, nil, 0, -1)
	if err != nil {
		return nil, err
	}
	s.prog, s.cost = prog, cost
	opts := netcast.ServerOptions{Obs: s.obs}
	if a.swap {
		if s.reg, err = epoch.NewRegistry(prog); err != nil {
			return nil, err
		}
		s.srv, err = netcast.NewAdaptiveServer(s.reg, opts)
	} else {
		s.srv, err = netcast.NewServerOpts(prog, opts)
	}
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.srv.Serve(ln)
	// The clock ticks only while a client is attached, so it never runs
	// ahead of a lookup that is about to ask for Server.Now().
	s.clock = make(chan struct{})
	go func() {
		defer close(s.clock)
		for n := 0; ; n++ {
			s.srv.AwaitConns(1)
			start := time.Now()
			if err := s.srv.Tick(); err != nil {
				return // the server was closed
			}
			if traced && n%tickSample == 0 {
				s.tickNs = append(s.tickNs, int64(time.Since(start)))
			}
		}
	}()
	return s, nil
}

func (a *air) measure(inst instance, m *meter) error {
	sys := inst.(*airSys)
	tr, rep := m.tr, m.rep
	nb := a.lookups / a.batch
	res := make([]lookupResult, a.lookups)
	rates := make([]float64, nb) // each batch's lookups per second
	var wall time.Duration       // the lookup batches' wall time
	var rebuildMs []float64
	dataWait := sys.cost
	logs := []*spanLog{tr.log(), tr.log()}
	planLog := tr.log()
	var scratch *epoch.Registry
	if !a.swap {
		var err error
		if scratch, err = epoch.NewRegistry(sys.prog); err != nil {
			return err
		}
	} else {
		dataWait = 0
	}
	var mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for b := 0; b < nb; b++ {
		if !a.swap {
			// The offline rebuilds: the catalog's program built and
			// staged again while no client is attached, each block from
			// a collected heap, so the GC the lookups left running does
			// not land on one block and miss another.
			runtime.GC()
			items := a.items(0)
			for j := 0; j < airRebuildsPerBatch; j++ {
				id := b*airRebuildsPerBatch + j
				if _, ms, err := rebuild(items, a.fanout, scratch, planLog, id); err != nil {
					rep.fail(false, "rebuild %d: %v", id, err)
				} else {
					rep.ok()
					rebuildMs = append(rebuildMs, ms)
				}
			}
		}
		if tr == nil {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		cost, ms := a.runBatch(sys, b, nb, res, logs, planLog, rep)
		d := time.Since(t0)
		wall += d
		rates[b] = float64(a.batch) / d.Seconds()
		dataWait += cost
		rebuildMs = append(rebuildMs, ms...)
		if tr == nil {
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if err := m.between(b, nb); err != nil {
			return err
		}
	}
	programs := 1
	if a.swap {
		programs = a.rebuilds()
		dataWait /= float64(programs)
	}
	if tr == nil {
		rep.metric("netcast.allocs_per_lookup", "count", float64(mallocs)/float64(a.lookups), a.lookups)
		rep.metric("netcast.alloc_bytes_per_lookup", "B", float64(bytes)/float64(a.lookups), a.lookups)
	}

	a.checkLookups(sys.prog, res, rep)
	var access, tuning float64
	found := 0
	for _, r := range res {
		if r.err == nil && r.found {
			found++
			access += float64(r.m.AccessTime)
			tuning += float64(r.m.TuningTime)
		}
	}
	lat := make([]float64, 0, found)
	for _, r := range res {
		if r.err == nil && r.found {
			lat = append(lat, float64(r.ns)/1e6)
		}
	}
	rep.metric("lookups_per_s", "1/s", quantile(rates, 0.5), nb)
	rep.metric("lookup_ms_p50", "ms", quantile(lat, 0.5), len(lat))
	rep.metric("lookup_ms_p99", "ms", quantile(lat, 0.99), len(lat))
	rep.metric("access_slots_mean", "slots", access/float64(found), found)
	rep.metric("tuning_slots_mean", "slots", tuning/float64(found), found)
	rep.metric("rebuild_ms_p50", "ms", quantile(rebuildMs, 0.5), len(rebuildMs))
	rep.metric("rebuild_ms_p90", "ms", quantile(rebuildMs, 0.9), len(rebuildMs))
	rep.metric("data_wait_slots", "slots", dataWait, programs)
	rep.metric("hit_ratio", "ratio", float64(found)/float64(a.lookups), a.lookups)

	if tr != nil {
		sys.stop() // the clock goroutine has exited: tickNs is safe to read
		c := sys.obs.Snapshot().Counters
		per := func(name string) float64 { return float64(c[name]) / float64(a.lookups) }
		rep.metric("netcast.conns_per_lookup", "count", per("netcast_conns_attached_total"), a.lookups)
		rep.metric("netcast.ticks_per_lookup", "count", per("netcast_ticks_total"), a.lookups)
		rep.metric("netcast.frames_per_lookup", "count", per("netcast_frames_total"), a.lookups)
		rep.metric("netcast.requests_per_lookup", "count", per("netcast_requests_total"), a.lookups)
		rep.metric("netcast.ticks_per_s", "1/s", float64(c["netcast_ticks_total"])/wall.Seconds(), int(c["netcast_ticks_total"]))
		ticks := durations(sys.tickNs, time.Microsecond)
		rep.metric("netcast.tick_us_p50", "us", quantile(ticks, 0.5), len(ticks))
		rep.metric("netcast.tick_us_p99", "us", quantile(ticks, 0.99), len(ticks))
		if a.swap {
			staged, _ := sys.reg.Stats()
			rep.metric("epoch.swaps_per_stage", "ratio", float64(c["netcast_swaps_total"])/float64(staged), staged)
		}
		inputs := [][]broadcast.Item{a.items(0)}
		for t := 1; a.swap && t < 8; t++ {
			inputs = append(inputs, a.items(t))
		}
		if err := allocProbe(inputs, a.fanout, airCfg, rep); err != nil {
			return err
		}
	}
	return nil
}

// rebuilds is how many drift periods air-swap stages: one per swapEvery
// lookups, less the last, so the final program airs before the run ends.
func (a *air) rebuilds() int { return a.lookups/swapEvery - 1 }

// stageDue reports whether the d-th completed lookup of batch b of nb
// triggers a rebuild: the first of every swapEvery, except in the last
// swapEvery lookups of the run.
func (a *air) stageDue(d, b, nb int) bool {
	return a.swap && d%swapEvery == 1 && (b < nb-1 || d <= a.batch-swapEvery)
}

// runBatch runs lookups [b·batch, (b+1)·batch) on the closed loop of
// clients. On air-swap the benchmark stages the next drift period whenever
// stageDue, and the batch ends when both the lookups and its rebuilds are
// done. It returns the summed data wait of the programs it staged and
// their rebuild times in milliseconds.
func (a *air) runBatch(sys *airSys, b, nb int, res []lookupResult, logs []*spanLog, planLog *spanLog, rep *report) (cost float64, rebuilds []float64) {
	lo, hi := b*a.batch, (b+1)*a.batch
	quota := 0
	for d := 1; d <= a.batch; d++ {
		if a.stageDue(d, b, nb) {
			quota++
		}
	}
	// sig carries one token per rebuild due in this batch, so a send
	// never blocks a client.
	sig := make(chan struct{}, quota)
	var next, done atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(l *spanLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				a.lookup(sys, i, &res[i], l)
				if a.stageDue(int(done.Add(1)), b, nb) {
					sig <- struct{}{}
				}
			}
		}(logs[c])
	}
	for j := 0; j < quota; j++ {
		<-sig
		period := b*(a.batch/swapEvery) + j + 1
		c, ms, err := rebuild(a.items(period), a.fanout, sys.reg, planLog, period)
		if err != nil {
			rep.fail(false, "rebuild of period %d: %v", period, err)
			continue
		}
		rep.ok()
		rebuilds = append(rebuilds, ms)
		cost += c
	}
	wg.Wait()
	return cost, rebuilds
}

// rebuild builds the catalog's program and stages it, timing the whole in
// milliseconds; it returns the program's data wait.
func rebuild(items []broadcast.Item, fanout int, reg *epoch.Registry, l *spanLog, id int) (cost, ms float64, err error) {
	start := time.Now()
	root := l.begin("rebuild", int64(id), -1)
	defer l.end(root)
	prog, cost, err := buildPlan(items, fanout, airCfg, l, int64(id), root)
	if err != nil {
		return 0, 0, err
	}
	s := l.begin("epoch.stage", int64(id), root)
	_, err = reg.Stage(prog)
	l.end(s)
	if err != nil {
		return 0, 0, fmt.Errorf("stage: %w", err)
	}
	return cost, float64(time.Since(start)) / 1e6, nil
}

// lookup runs lookup i as one session: dial, look up from the tower's
// current slot, close.
func (a *air) lookup(sys *airSys, i int, r *lookupResult, l *spanLog) {
	start := time.Now()
	root := l.begin("lookup", int64(i), -1)
	s := l.begin("netcast.dial", int64(i), root)
	c, err := netcast.Dial(sys.addr)
	l.end(s)
	if err != nil {
		r.err = err
		l.end(root)
		return
	}
	if sys.obs != nil {
		c.Instrument(sys.obs)
	}
	r.arrival = sys.srv.Now()
	s = l.begin("netcast.lookup", int64(i), root)
	r.found, r.label, r.m, r.err = c.Lookup(r.arrival, a.keys[i], sim.Power{})
	l.end(s)
	s = l.begin("netcast.close", int64(i), root)
	c.Close()
	l.end(s)
	r.ns = int64(time.Since(start))
	l.end(root)
}

// checkLookups checks every answer. Each lookup must return its key's
// catalog label. On the static tower its tuning time and data wait must
// also equal the analytic client's at the same arrival, and its access
// time may differ only by whole cycles: an arrival slot that aired before
// the request reached the tower is served at its next cyclic occurrence.
func (a *air) checkLookups(prog *sim.Program, res []lookupResult, rep *report) {
	cycle := prog.CycleLen()
	for i := range res {
		r := &res[i]
		key := a.keys[i]
		want := a.labels[key-1]
		if r.err != nil {
			rep.fail(false, "lookup %d key %d: %v", i, key, r.err)
			continue
		}
		if !r.found || r.label != want {
			rep.fail(true, "lookup %d key %d: found=%v label=%q, want %q", i, key, r.found, r.label, want)
			continue
		}
		if a.swap {
			rep.ok()
			continue
		}
		m, found, err := prog.QueryKey(r.arrival, key, sim.Power{})
		d := r.m.AccessTime - m.AccessTime
		if err != nil || !found || r.m.TuningTime != m.TuningTime || r.m.DataWait != m.DataWait ||
			d < 0 || d%cycle != 0 || r.m.Retries != 0 || r.m.Restarts != 0 {
			rep.fail(true, "lookup %d key %d arrival %d: tower %+v, analytic %+v (err %v)", i, key, r.arrival, r.m, m, err)
			continue
		}
		rep.ok()
	}
}
