package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dynocache/internal/core"
)

// metric is one reported number. samples is how many measurements the
// value summarizes: rounds for a median, batches or migrations for a
// latency percentile, 1 for a single reading or an exact count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	rounds  []float64 // the per-round values a median summarizes
}

// result is what a workload hands back to main.
type result struct {
	attempted, failed int
	metrics           []metric
	// counts are simulated event counts. They depend only on the seed, so
	// every round of a run and every run with the same seed must agree.
	counts map[string]uint64
	// selftest lists, per gate, the error it raised on a deliberately
	// corrupted copy of a result that had just passed it.
	selftest []string
	notes    map[string]any
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

// median reports the median of per-round values, keeping the values.
func (r *result) median(name string, rounds []float64, unit string) {
	r.metrics = append(r.metrics, metric{name, median(rounds), unit, len(rounds), rounds})
}

// addCounts records the simulated counts of one replay under label.
func (r *result) addCounts(label string, st *core.Stats) {
	if r.counts == nil {
		r.counts = map[string]uint64{}
	}
	r.counts[label+".accesses"] = st.Accesses
	r.counts[label+".misses"] = st.Misses
	r.counts[label+".blocks_evicted"] = st.BlocksEvicted
	r.counts[label+".bytes_evicted"] = st.BytesEvicted
	r.counts[label+".unlinks"] = st.UnlinkEvents
}

// coreMetrics adds the per-layer core figures every workload reports,
// from the simulated counts of its replays summed.
func (r *result) coreMetrics(sum *core.Stats) {
	r.add("core.miss_rate", float64(sum.Misses)/float64(sum.Accesses), "ratio", 1)
	r.add("core.evictions", float64(sum.BlocksEvicted), "count", 1)
}

// addStats adds the counters addCounts records.
func addStats(dst, s *core.Stats) {
	dst.Accesses += s.Accesses
	dst.Misses += s.Misses
	dst.BlocksEvicted += s.BlocksEvicted
	dst.BytesEvicted += s.BytesEvicted
	dst.UnlinkEvents += s.UnlinkEvents
}

// gateError marks a failed correctness gate: the run's outputs are wrong.
type gateError struct{ msg string }

func (e *gateError) Error() string { return e.msg }

func gatef(format string, args ...any) error {
	return &gateError{fmt.Sprintf(format, args...)}
}

// selfTest shows that a gate is not vacuous: check must reject the
// corrupted copy of a result the real gate just accepted.
func (r *result) selfTest(what string, check error) error {
	if check == nil {
		return gatef("self-test: gate accepted a result with %s", what)
	}
	r.selftest = append(r.selftest, what+": "+check.Error())
	return nil
}

// gateStats requires two replays of one configuration to agree on every
// simulated counter.
func gateStats(label string, got, want core.Stats) error {
	if got != want {
		return gatef("%s: stats %+v, reference %+v", label, got, want)
	}
	return nil
}

// budget paces rounds so a run measures for about its allotted seconds:
// another round starts only if one more of the longest so far still fits.
type budget struct {
	start   time.Time
	total   time.Duration
	longest time.Duration
	rounds  int
}

func newBudget(seconds float64) *budget {
	return &budget{start: time.Now(), total: time.Duration(seconds * float64(time.Second))}
}

// more reports whether to run another round; the first always runs.
func (b *budget) more() bool {
	if b.rounds == 0 {
		return true
	}
	return time.Since(b.start)+b.longest <= b.total
}

// done records a finished round that took d.
func (b *budget) done(d time.Duration) {
	b.rounds++
	b.longest = max(b.longest, d)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail is quantile for a latency percentile, which is only reported when
// at least ten samples lie beyond it.
func tail(xs []float64, q float64, what string) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("%s: %d samples leave %.1f beyond p%g, need 10", what, len(xs), beyond, q*100)
	}
	return quantile(xs, q), nil
}

// retainedHeapMB forces collections and reports the live heap; callers
// keep their results reachable across the call. The second collection
// frees what the first only moved to sync.Pool victim caches.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuTime is the CPU time the process has used, user and system, on all
// of its threads. Unlike wall time it does not grow while the host runs
// another guest on this one's CPU (steal time).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
