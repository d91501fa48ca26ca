// Package hotset implements the first of the paper's three broadcast
// research categories (Section 1): determining the data for broadcasting.
// A server cannot push its whole database — it tracks access frequencies
// from the on-demand uplink, broadcasts the hottest items, and
// periodically re-evaluates, dropping items whose estimated frequency has
// decayed and promoting newly popular ones (the adaptive protocols of
// [DCK97] and the hybrid scheme of [SRB97]).
//
// The Estimator keeps an exponentially-decayed counter per key: an access
// adds 1, and all counters decay by the configured factor once per Tick
// (one "broadcast period"). Select returns the current top-n keys — the
// hot set to hand to the allocation machinery — and the estimator reports
// how much of the observed demand the chosen set covers.
package hotset

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Config tunes an Estimator.
type Config struct {
	// Decay multiplies every counter once per Tick; in (0, 1).
	// Defaults to 0.5.
	Decay float64
	// Floor drops counters that decay below it, bounding memory on
	// long-tailed key universes. Defaults to 0.01.
	Floor float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		return c, fmt.Errorf("hotset: decay %g, want in (0,1)", c.Decay)
	}
	if c.Floor == 0 {
		c.Floor = 0.01
	}
	if c.Floor < 0 {
		return c, fmt.Errorf("hotset: floor %g, want >= 0", c.Floor)
	}
	return c, nil
}

// Estimator tracks decayed access frequencies per key. All methods are
// safe for concurrent use.
type Estimator struct {
	cfg Config

	mu       sync.Mutex
	counters map[int64]float64
	ticks    int
}

// New returns an empty estimator.
func New(cfg Config) (*Estimator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg, counters: map[int64]float64{}}, nil
}

// Record counts one access to key (from the on-demand uplink).
func (e *Estimator) Record(key int64) {
	e.mu.Lock()
	e.counters[key]++
	e.mu.Unlock()
}

// Tick ends one broadcast period: every counter decays, and counters
// below the floor are dropped.
func (e *Estimator) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	for k, v := range e.counters {
		v *= e.cfg.Decay
		if v < e.cfg.Floor {
			delete(e.counters, k)
			continue
		}
		e.counters[k] = v
	}
}

// Ticks returns how many periods have elapsed.
func (e *Estimator) Ticks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ticks
}

// Estimate returns the decayed frequency of key (0 if unseen or decayed
// away).
func (e *Estimator) Estimate(key int64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters[key]
}

// Tracked returns how many keys currently hold a counter.
func (e *Estimator) Tracked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.counters)
}

// HotKey is one selected key with its estimated frequency.
type HotKey struct {
	Key    int64
	Weight float64
}

// Select returns the top-n keys by decayed frequency (fewer if fewer are
// tracked), descending, ties broken by ascending key for determinism, and
// the coverage: the selected share of the total tracked frequency mass
// (1 when everything fits, 0 when nothing is tracked). The total is
// summed in ascending key order, so equal counters give a bit-identical
// coverage whatever the map's iteration order.
func (e *Estimator) Select(n int) (hot []HotKey, coverage float64) {
	if n <= 0 {
		return nil, 0
	}
	e.mu.Lock()
	keys := make([]int64, 0, len(e.counters))
	for k := range e.counters {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	all := make([]HotKey, len(keys))
	var total float64
	for i, k := range keys {
		v := e.counters[k]
		all[i] = HotKey{Key: k, Weight: v}
		total += v
	}
	e.mu.Unlock()
	if len(all) > n {
		selectTop(all, n)
		all = all[:n]
	}
	slices.SortFunc(all, compareHot)
	var covered float64
	for _, h := range all {
		covered += h.Weight
	}
	if total == 0 {
		return all, 0
	}
	return all, covered / total
}

// compareHot is Select's total order: weight descending, then key
// ascending.
func compareHot(a, b HotKey) int {
	if a.Weight != b.Weight {
		if a.Weight > b.Weight {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Key, b.Key)
}

// selectTop reorders a so that its first n entries are the n that come
// first under compareHot, in no particular order (quickselect with a
// median-of-three pivot; expected O(len(a))).
func selectTop(a []HotKey, n int) {
	before := func(i, j int) bool { return compareHot(a[i], a[j]) < 0 }
	lo, hi := 0, len(a) // a[:lo] precede and a[hi:] follow everything in a[lo:hi]
	for hi-lo > 1 {
		mid, last := lo+(hi-lo)/2, hi-1
		if before(mid, lo) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if before(last, mid) {
			a[last], a[mid] = a[mid], a[last]
			if before(mid, lo) {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		a[mid], a[last] = a[last], a[mid] // the median pivots at last
		p := lo
		for i := lo; i < last; i++ {
			if before(i, last) {
				a[i], a[p] = a[p], a[i]
				p++
			}
		}
		a[p], a[last] = a[last], a[p]
		switch {
		case p == n || p+1 == n:
			return
		case p > n:
			hi = p
		default:
			lo = p + 1
		}
	}
}

// Churn compares two selections and returns how many keys of prev were
// dropped in next — the instability measure that drives re-broadcast
// decisions (re-allocating too eagerly wastes the clients' cached index
// knowledge; too lazily serves a stale hot set).
func Churn(prev, next []HotKey) int {
	keep := make(map[int64]bool, len(next))
	for _, h := range next {
		keep[h.Key] = true
	}
	dropped := 0
	for _, h := range prev {
		if !keep[h.Key] {
			dropped++
		}
	}
	return dropped
}
