package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the call: its layer name, the interval, and the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer times layer calls. Every workload times its calls through it
// whether or not the run is traced; only a traced run keeps the spans,
// in memory, until write puts them on disk at the end. It is safe for
// concurrent use, so the service workload's clients can record spans.
type tracer struct {
	keep  bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[int]span
	next  int
}

func newTracer(keep bool) *tracer {
	return &tracer{keep: keep, epoch: time.Now(), open: map[int]span{}}
}

// begin opens a span under parent (0 for none) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = span{ID: t.next, Parent: parent, Name: name, Start: now}
	return t.next
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	s.End = now
	if t.keep {
		t.spans = append(t.spans, s)
	}
	return s.dur()
}

// timed runs f inside a span and returns f's error and the span's length.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := f()
	return t.end(id), err
}

// cpuTimed is timed, but returns the CPU time the process spent in f,
// on all threads, rather than f's wall time. Setup and single-threaded
// replays are timed this way: CPU time does not grow while the host runs
// another guest on this one's CPU (steal time), so their figures do not
// move with the host's load, while the span still records the wall
// interval.
func (t *tracer) cpuTimed(name string, parent int, f func() error) (time.Duration, error) {
	c0 := cpuTime()
	_, err := t.timed(name, parent, f)
	return cpuTime() - c0, err
}

// selfTimes sums, per layer name, the self time of the kept spans
// descending from root: a span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes(root int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	byID := map[int]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
		byID[s.ID] = s
	}
	out := map[string]time.Duration{}
	var walk func(s span)
	walk = func(s span) {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	if s, ok := byID[root]; ok {
		walk(s)
	}
	return out
}

// coverage is the share of root's interval that its child spans cover.
func (t *tracer) coverage(root int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r span
	var kids []span
	for _, s := range t.spans {
		if s.ID == root {
			r = s
		}
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	if r.dur() <= 0 {
		return 0
	}
	return float64(covered(r, kids)) / float64(r.dur())
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's; children of concurrent goroutines may overlap.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return time.Duration(total + curHi - curLo)
}

// write stores the kept spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// roundTracer is the tracer for a run's round. A traced run keeps spans
// in its odd rounds only, so it measures its tracing overhead against
// untraced rounds of its own; an untraced run keeps none.
func (e *runEnv) roundTracer(round int) *tracer {
	if e.traced && round%2 == 1 {
		return e.tr
	}
	return newTracer(false)
}

// more reports whether to run another round. A traced run makes at least
// three, untraced, traced, untraced, however long they take.
func (e *runEnv) more(b *budget) bool {
	return b.more() || (e.traced && b.rounds < 3)
}

// traceRounds is what a traced run measures about tracing itself: the
// length of each round's root span, traced and untraced, and the share of
// each traced root that layer spans cover.
type traceRounds struct {
	traced, plain, coverage []float64
}

// add records a finished round whose root span took d.
func (t *traceRounds) add(tr *tracer, root int, d time.Duration) {
	if !tr.keep {
		t.plain = append(t.plain, d.Seconds())
		return
	}
	t.traced = append(t.traced, d.Seconds())
	t.coverage = append(t.coverage, tr.coverage(root))
}

// report adds the tracing metrics, and fails the run if layer spans cover
// less than 0.9 of the root spans.
func (t *traceRounds) report(res *result) error {
	cov := median(t.coverage)
	res.add("trace.span_coverage", cov, "ratio", len(t.coverage))
	// Signed and never clamped: a negative value means tracing cost less
	// than the rounds' own spread, which untraced_spread_s shows.
	res.add("trace.overhead_s", median(t.traced)-median(t.plain), "s", len(t.traced)+len(t.plain))
	res.add("trace.untraced_spread_s", quantile(t.plain, 1)-quantile(t.plain, 0), "s", len(t.plain))
	if cov < 0.9 {
		return gatef("layer spans cover %.3f of the root span, need at least 0.9", cov)
	}
	return nil
}
