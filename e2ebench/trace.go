package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory until it ends. Every
// goroutine that records spans owns one spanLog, so recording takes no
// lock; parents are indices into the same log, because all spans of one
// request (one lookup, one rebuild, one station period) are recorded by
// the goroutine that runs it.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

type spanLog struct {
	start time.Time
	spans []span
}

// span is one call into a layer: its name, the request it belongs to, the
// span that caused it (-1 for a root) and its start and end in
// nanoseconds since the tracer started.
type span struct {
	name       string
	id         int64
	parent     int
	start, end int64
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// log returns a fresh span log for one goroutine; a nil tracer returns a
// nil log, on which every method is a no-op.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{start: t.start}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, id int64, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, start: int64(time.Since(l.start))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].end = int64(time.Since(l.start))
}

// durations returns the durations of every span with the given name, in
// nanoseconds.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

func (t *tracer) count() int {
	n := 0
	for _, l := range t.logs {
		n += len(l.spans)
	}
	return n
}

// selfTimes prints each span name's total and self time — the span's
// duration minus the time its child spans cover — and adds the share of
// root-span time that no layer span covers: the benchmark's own work
// inside a request.
func (t *tracer) selfTimes(rep *report) {
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var rootTotal, rootSelf int64
	for _, l := range t.logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			a := byName[s.name]
			if a == nil {
				a = &agg{}
				byName[s.name] = a
			}
			d := s.end - s.start
			self := d - child[i]
			if self < 0 {
				self = 0
			}
			a.n++
			a.total += d
			a.self += self
			if s.parent < 0 && child[i] > 0 {
				rootTotal += d
				rootSelf += self
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span\tcount\ttotal_ms\tself_ms\tself_us_mean")
	for _, n := range names {
		a := byName[n]
		fmt.Printf("%s\t%d\t%.3f\t%.3f\t%.3f\n", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6, float64(a.self)/1e3/float64(a.n))
	}
	if rootTotal > 0 {
		rep.metric("bench.self_share", "ratio", float64(rootSelf)/float64(rootTotal), int(rootTotal/1e6))
	}
}

// write saves every span as one JSON line under the build directory and
// returns the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string `json:"name"`
		ID      int64  `json:"id"`
		Span    int    `json:"span"`
		Parent  int    `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	base := 0
	for _, l := range t.logs {
		for i, s := range l.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + s.parent
			}
			if err := enc.Encode(line{s.name, s.id, base + i, parent, s.start, s.end}); err != nil {
				f.Close()
				return "", fmt.Errorf("trace: %w", err)
			}
		}
		base += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
