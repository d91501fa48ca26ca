package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/broadcast"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The station workload: the offline broadcast.Station replan loop, the
// shape of bcast-station -async without sockets. Each period records a
// Zipf demand whose hot spot rotates, closes the period, plans the new
// selection, stages and swaps it in an epoch registry, installs it, and
// answers the period's broadcast hits with the analytic client.
const (
	stationUniverse = 20000
	stationHot      = 1000
	stationFanout   = 2
	stationTheta    = 0.9
	stationDecay    = 0.4
	stationRecords  = 20000 // demand records per period
	stationRotate   = 50    // keys the hot spot moves per period
	// stationPeriodsPerSecond scales the period count with --seconds; the
	// periods run in batches of stationBatch.
	stationPeriodsPerSecond = 12
	stationBatch            = 4
)

// stationCfg is the solver configuration broadcast.Station plans with;
// the traced run replays each selection through it.
var stationCfg = core.Config{Channels: channels, Polish: true, FallbackOnLimit: true}

// station holds the generated inputs of the station workload.
type station struct {
	seed     int64
	periods  int
	universe []broadcast.Item
	zipf     zipfCDF
	off      int // the seeded start of the hot spot
}

// stationSys is one running station with its epoch registry.
type stationSys struct {
	st  *broadcast.Station
	reg *epoch.Registry
}

func (*stationSys) stop() {}

func newStation(seed int64, seconds int) *station {
	s := &station{
		seed:     seed,
		periods:  stationPeriodsPerSecond * seconds / stationBatch * stationBatch,
		universe: make([]broadcast.Item, stationUniverse),
		zipf:     newZipf(stationUniverse, stationTheta),
	}
	// A flat prior: demand is learned, not assumed.
	for i := range s.universe {
		s.universe[i] = broadcast.Item{Label: fmt.Sprintf("item-%05d", i+1), Key: int64(i + 1), Weight: 1}
	}
	// The hot spot starts in the first quarter of the universe, so over a
	// run it rotates through the key space without wrapping around.
	s.off = rand.New(rand.NewSource(seed)).Intn(stationUniverse / 4)
	return s
}

func (s *station) start(traced bool) (instance, error) {
	var r *obs.Registry
	if traced {
		r = obs.New()
	}
	st, err := broadcast.NewStation(s.universe, broadcast.StationConfig{
		HotSize: stationHot, Channels: channels, Fanout: stationFanout,
		Decay: stationDecay, Obs: r,
	})
	if err != nil {
		return nil, err
	}
	reg, err := epoch.NewRegistry(st.Schedule().Program())
	if err != nil {
		return nil, err
	}
	return &stationSys{st, reg}, nil
}

func (s *station) measure(inst instance, m *meter) error {
	sys := inst.(*stationSys)
	tr, rep := m.tr, m.rep
	// Both streams restart from the seed, so every pass over the same
	// seed replays the same inputs.
	keyRng := rand.New(rand.NewSource(s.seed))
	arrRng := rand.New(rand.NewSource(^s.seed))
	l := tr.log()
	nb := s.periods / stationBatch
	var (
		rates     = make([]float64, 0, nb) // each batch's lookups per second
		batchWall time.Duration            // without the traced replays
		batchQ    int
		rebuildMs []float64
		queryNs   nsHist
		keys      = make([]int64, stationRecords)
		hitKeys   = make([]int64, 0, stationRecords)
		recordNs  time.Duration
		hits      int
		queries   int
		access    float64
		tuning    float64
		dataWait  float64
		installed int
		probe     [][]broadcast.Item
	)
	for p := 0; p < s.periods; p++ {
		root := l.begin("period", int64(p), -1)
		onAir := sys.st.Schedule()
		labels := dataLabels(onAir.Program())
		shift := s.off + p*stationRotate
		for i := range keys {
			keys[i] = int64((s.zipf.rank(keyRng)+shift)%stationUniverse + 1)
		}
		start := time.Now()

		sp := l.begin("broadcast.record", int64(p), root)
		hitKeys = hitKeys[:0]
		for _, k := range keys {
			if sys.st.Record(k) {
				hitKeys = append(hitKeys, k)
			}
		}
		recordNs += time.Since(start)
		l.end(sp)
		hits += len(hitKeys)

		t0 := time.Now()
		sp = l.begin("broadcast.close_period", int64(p), root)
		sel, _ := sys.st.ClosePeriod()
		l.end(sp)
		sp = l.begin("broadcast.plan", int64(p), root)
		sched, err := sys.st.PlanSelection(sel)
		l.end(sp)
		if err == nil {
			sp = l.begin("epoch.stage", int64(p), root)
			_, err = sys.reg.Stage(sched.Program())
			sys.reg.TrySwap()
			l.end(sp)
		}
		var replay time.Duration
		if err != nil {
			// A station stays on the air: a failed rebuild keeps the
			// stale schedule, as InstallPlanned does for a failed build.
			rep.fail(false, "period %d: rebuild: %v", p, err)
		} else {
			sp = l.begin("broadcast.install", int64(p), root)
			sys.st.Install(sel, sched)
			l.end(sp)
			rebuildMs = append(rebuildMs, float64(time.Since(t0))/1e6)
			dataWait += sched.DataWait()
			installed++
			if tr != nil {
				// Replay the selection through the layers PlanSelection
				// hides, and check the replay plans the same data wait.
				t0 = time.Now()
				sp = l.begin("replay", int64(p), root)
				items := s.selectionItems(sel)
				_, cost, err := buildPlan(items, stationFanout, stationCfg, l, int64(p), sp)
				l.end(sp)
				replay = time.Since(t0)
				switch {
				case err != nil:
					rep.fail(false, "period %d: replay: %v", p, err)
				case cost != sched.DataWait():
					rep.fail(true, "period %d: replayed data wait %v, station planned %v", p, cost, sched.DataWait())
				default:
					rep.ok()
				}
				if len(probe) < 8 {
					probe = append(probe, items)
				}
			} else {
				rep.ok()
			}
		}

		// The period's hits, answered by the program they were recorded
		// against.
		sp = l.begin("sim.query", int64(p), root)
		cycle := onAir.CycleLen()
		for _, k := range hitKeys {
			arrival := arrRng.Intn(cycle)
			q0 := time.Now()
			m, found, err := onAir.QueryKey(arrival, k, sim.Power{})
			queryNs.add(time.Since(q0))
			switch {
			case err != nil:
				rep.fail(false, "period %d key %d arrival %d: %v", p, k, arrival, err)
			case !found || labels[k] != s.universe[k-1].Label:
				rep.fail(true, "period %d key %d arrival %d: found=%v label=%q", p, k, arrival, found, labels[k])
			default:
				rep.ok()
			}
			access += float64(m.AccessTime)
			tuning += float64(m.TuningTime)
		}
		queries += len(hitKeys)
		l.end(sp)
		l.end(root)
		batchWall += time.Since(start) - replay
		batchQ += len(hitKeys)
		if (p+1)%stationBatch == 0 {
			rates = append(rates, float64(batchQ)/batchWall.Seconds())
			batchWall, batchQ = 0, 0
			if err := m.between(p/stationBatch, nb); err != nil {
				return err
			}
		}
	}

	rep.metric("lookups_per_s", "1/s", quantile(rates, 0.5), len(rates))
	rep.metric("lookup_ms_p50", "ms", queryNs.quantile(0.5)/1e6, queries)
	rep.metric("lookup_ms_p99", "ms", queryNs.quantile(0.99)/1e6, queries)
	rep.metric("access_slots_mean", "slots", access/float64(queries), queries)
	rep.metric("tuning_slots_mean", "slots", tuning/float64(queries), queries)
	rep.metric("rebuild_ms_p50", "ms", quantile(rebuildMs, 0.5), len(rebuildMs))
	rep.metric("rebuild_ms_p90", "ms", quantile(rebuildMs, 0.9), len(rebuildMs))
	rep.metric("data_wait_slots", "slots", dataWait/float64(installed), installed)
	records := s.periods * stationRecords
	rep.metric("hit_ratio", "ratio", float64(hits)/float64(records), records)
	rep.metric("broadcast.record_ns_mean", "ns", float64(recordNs.Nanoseconds())/float64(records), records)
	rep.metric("sim.query_us_p50", "us", queryNs.quantile(0.5)/1e3, queries)
	staged, swapped := sys.reg.Stats()
	rep.metric("epoch.swaps_per_stage", "ratio", float64(swapped)/float64(staged), staged)
	if tr != nil && len(probe) > 0 {
		return allocProbe(probe, stationFanout, stationCfg, rep)
	}
	return nil
}

// selectionItems rebuilds the catalog PlanSelection plans for a
// selection it has already sorted by key.
func (s *station) selectionItems(sel []broadcast.HotKey) []broadcast.Item {
	items := make([]broadcast.Item, len(sel))
	for i, h := range sel {
		w := h.Weight
		if w <= 0 {
			w = 1
		}
		items[i] = broadcast.Item{Label: s.universe[h.Key-1].Label, Key: h.Key, Weight: w}
	}
	return items
}

// dataLabels maps every key the program carries to its data label.
func dataLabels(p *sim.Program) map[int64]string {
	t := p.Tree()
	out := make(map[int64]string, t.NumData())
	for _, id := range t.DataIDs() {
		if k, ok := t.Key(id); ok {
			out[k] = t.Label(id)
		}
	}
	return out
}
