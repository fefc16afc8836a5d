// Command dynocache-bench measures the simulator's critical paths and
// writes a machine-readable report. It pins three workloads:
//
//   - single-run replay of the largest Table 1 trace (word) under the
//     fine-grained FIFO policy, through four loops: the frozen pre-kernel
//     baseline (legacy.go), the generic interface kernel, the
//     devirtualized FIFO kernel, and the streaming decoder feeding the
//     devirtualized kernel;
//   - a full granularity sweep (every FIFO-family policy times every
//     Table 1 benchmark at quick scale) — the parallel path the
//     experiments suite spends its time in;
//   - the multi-configuration kernel pair: the granularity ladder times a
//     pressure ladder on the replay trace, once as sequential per-config
//     replays (sweep/perconfig) and once through the single-pass kernel
//     (sweep/singlepass), plus the representative-interval estimator over
//     the same ladder's turnover regime on word and vortex
//     (sweep/sampled);
//   - the service's ReplayBatch loop, a tenant alone on one shard.
//
// Before timing anything it replays the trace through every loop once
// and insists the results are identical, so the speedups it reports are
// speedups of the same computation.
//
// The replayed policy defaults to fine-grained FIFO and can be pinned to
// any core policy name with -policy (e.g. -policy lru, -policy 8-unit,
// -policy generational/8). A comparison row replays the same trace under
// exact LRU so the report always quantifies the recency kernel against
// the FIFO family.
//
// With -gate, the freshly measured report is compared against a committed
// one and the run fails if replay throughput regressed by more than
// -gate-drop (default 15%). The gated metrics are within-process ratios —
// replay_speedup_vs_legacy plus the recency-kernel cost ratio
// lru_cost_vs_generic — so they transfer across machines of different
// absolute speed. The LRU cost additionally has an absolute ceiling: the
// exact-LRU kernel must stay under 2x the generic FIFO kernel's ns/op,
// enforced with the same noise allowance as the relative gates (the
// measured ratio sits right at the target).
//
// Usage:
//
//	dynocache-bench -scale 1.0 -pressure 2 -o BENCH_report.json
//	dynocache-bench -policy lru -o -
//	dynocache-bench -gate BENCH_report.json -o BENCH_report.ci.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/service"
	"dynocache/internal/sim"
	"dynocache/internal/trace"
	"dynocache/internal/workload"
)

// benchResult is one benchmark's line in the report. GOMAXPROCS is
// recorded per row, not just at the top level, because the scaling
// sweep re-pins it between rows.
type benchResult struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	AccessesPerSec float64 `json:"accesses_per_sec,omitempty"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
}

// scalingInfo summarizes the GOMAXPROCS sweep of the contended service
// configuration (shards = procs, two tenants per shard). Efficiency is
// normalized throughput: (APS at max procs / APS at min procs) divided
// by (max procs / min procs) — 1.0 is perfect linear scaling.
type scalingInfo struct {
	Procs          []int     `json:"procs"`
	AccessesPerSec []float64 `json:"accesses_per_sec"`
	Efficiency     float64   `json:"efficiency"`
}

// benchReport is the JSON document bench.sh commits as BENCH_report.json.
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	Trace    string  `json:"trace"`
	Policy   string  `json:"policy"`
	Blocks   int     `json:"blocks"`
	Accesses int     `json:"accesses"`
	Bytes    int     `json:"bytes"`
	Scale    float64 `json:"scale"`
	Pressure int     `json:"pressure"`

	Benchmarks []benchResult `json:"benchmarks"`

	// Scaling is the multi-core scaling sweep of the shared-nothing
	// service (service/replay-batch/pN rows), absent when the sweep was
	// disabled with -cpu "".
	Scaling *scalingInfo `json:"scaling,omitempty"`

	// Baseline, when provided (-baseline-commit/-baseline-ns), records a
	// measurement of this same replay workload taken from a checkout of
	// an earlier commit — the whole earlier binary, old core included —
	// which the in-binary legacy loop cannot represent because it links
	// against the current core.
	Baseline *baselineInfo `json:"baseline,omitempty"`

	// ReplaySpeedupVsLegacy is the specialized kernel's accesses/sec over
	// the frozen pre-kernel loop's, on the single-run replay workload.
	ReplaySpeedupVsLegacy float64 `json:"replay_speedup_vs_legacy"`

	// LRUCostVsGeneric is the exact-LRU kernel's ns/op over the generic
	// FIFO kernel's on the same trace — the price of the heap arena,
	// first-fit holes and recency list relative to a baseline FIFO loop
	// with none of that machinery. Present only when the comparison row
	// ran (the replayed policy is not itself LRU).
	LRUCostVsGeneric float64 `json:"lru_cost_vs_generic,omitempty"`

	// ReplaySpeedupVsBaseline is the same ratio against the out-of-tree
	// baseline measurement, when one was provided.
	ReplaySpeedupVsBaseline float64 `json:"replay_speedup_vs_baseline,omitempty"`

	// SweepSpeedupVsPerConfig is the single-pass multi-configuration
	// kernel's throughput over sequential per-config replays of the
	// identical granularity x pressure ladder on the replay trace — a
	// within-process ratio, gated committed-relative like the replay
	// speedup.
	SweepSpeedupVsPerConfig float64 `json:"sweep_speedup_vs_perconfig,omitempty"`

	// MigrateFlipPauseMaxNs and MigrateFlipPauseAvgNs record the
	// client-visible frozen window of a live tenant migration (fence-up to
	// fence-drop) over the service/migrate row's handoffs. The max is
	// gated by an absolute ceiling (-flip-ceiling), not committed-relative:
	// the pause is scheduler-sensitive at the microsecond scale, and the
	// property that matters is "a flip never blocks clients for long", not
	// a ratio to a previous run.
	MigrateFlipPauseMaxNs int64 `json:"migrate_flip_pause_max_ns,omitempty"`
	MigrateFlipPauseAvgNs int64 `json:"migrate_flip_pause_avg_ns,omitempty"`

	// SampledMissRateError and SampledMissRateBound record the
	// representative-interval estimator's worst absolute miss-rate error
	// against the full replay over the sampled row's configurations (word
	// and vortex, turnover-regime pressures), and the worst error bound
	// the estimator reported for them. The self-check fails the run if
	// any error exceeds its bound or the two-point acceptance line.
	SampledMissRateError float64 `json:"sampled_missrate_error,omitempty"`
	SampledMissRateBound float64 `json:"sampled_missrate_bound,omitempty"`
}

// baselineInfo is an externally measured replay datum for comparison.
type baselineInfo struct {
	Commit         string  `json:"commit"`
	NsPerOp        float64 `json:"ns_per_op"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
	AllocsPerOp    int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dynocache-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	bench := flag.String("bench", "word", "Table 1 benchmark to replay (word is the largest)")
	policyName := flag.String("policy", "fifo", "eviction policy for the replay rows (any name core.ParsePolicy accepts)")
	scale := flag.Float64("scale", 1.0, "workload scale for the replay trace")
	sweepScale := flag.Float64("sweep-scale", 0.05, "workload scale for the sweep benchmark")
	pressure := flag.Int("pressure", 2, "cache pressure factor n (capacity = maxCache/n)")
	out := flag.String("o", "BENCH_report.json", "report output path ('-' for stdout)")
	baselineCommit := flag.String("baseline-commit", "", "commit an out-of-tree baseline replay was measured at")
	baselineNs := flag.Float64("baseline-ns", 0, "out-of-tree baseline replay ns/op (same trace, scale, pressure)")
	baselineAllocs := flag.Int64("baseline-allocs", 0, "out-of-tree baseline replay allocs/op")
	benchtime := flag.String("benchtime", "1s", "measurement window per benchmark (longer = steadier on busy machines)")
	gate := flag.String("gate", "", "committed report to gate against (fail on replay throughput regression)")
	gateDrop := flag.Float64("gate-drop", 0.15, "max tolerated fractional drop of replay_speedup_vs_legacy under -gate")
	cpuList := flag.String("cpu", "auto", "comma-separated GOMAXPROCS values for the service scaling sweep (e.g. 1,2,4,8); 'auto' = powers of two up to NumCPU; '' disables the sweep")
	scalingFloor := flag.Float64("scaling-floor", 0, "fail unless scaling efficiency reaches this floor (0 disables; only applied when the sweep spans >1 proc)")
	flipCeiling := flag.Duration("flip-ceiling", 50*time.Millisecond, "fail if any live-migration flip pause exceeds this (0 disables)")
	flag.Parse()

	// testing.Benchmark reads the measurement window from the testing
	// package's own flag, which exists only after testing.Init.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	p, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	tr, err := p.Scaled(*scale).Synthesize()
	if err != nil {
		return err
	}
	policy, err := core.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	lruPolicy := core.Policy{Kind: core.PolicyLRU}

	if err := selfCheck(tr, policy, *pressure); err != nil {
		return err
	}
	if policy != lruPolicy {
		if err := selfCheck(tr, lruPolicy, *pressure); err != nil {
			return err
		}
	}
	if err := serviceSelfCheck(tr, policy, *pressure); err != nil {
		return err
	}

	rep := &benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Trace:       tr.Name,
		Policy:      policy.String(),
		Blocks:      tr.NumBlocks(),
		Accesses:    len(tr.Accesses),
		Bytes:       tr.TotalBytes(),
		Scale:       *scale,
		Pressure:    *pressure,
	}

	accesses := len(tr.Accesses)
	var legacyAPS, specializedAPS float64

	fmt.Fprintf(os.Stderr, "replaying %s: %d blocks, %d accesses, %d bytes\n",
		tr.Name, tr.NumBlocks(), accesses, tr.TotalBytes())

	record := func(name string, perOpAccesses int, f func(b *testing.B)) benchResult {
		r := testing.Benchmark(f)
		br := benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		}
		if perOpAccesses > 0 && r.NsPerOp() > 0 {
			br.AccessesPerSec = float64(perOpAccesses) / (float64(r.NsPerOp()) / 1e9)
		}
		fmt.Fprintf(os.Stderr, "%-24s %12.0f ns/op %14.0f acc/s %8d allocs/op\n",
			name, br.NsPerOp, br.AccessesPerSec, br.AllocsPerOp)
		rep.Benchmarks = append(rep.Benchmarks, br)
		return br
	}

	legacyAPS = record("replay/legacy", accesses, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := legacyRun(tr, policy, *pressure, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}).AccessesPerSec

	genericNs := record("replay/generic", accesses, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tr, policy, *pressure, sim.Options{ForceGeneric: true}); err != nil {
				b.Fatal(err)
			}
		}
	}).NsPerOp

	specializedAPS = record("replay/specialized", accesses, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(tr, policy, *pressure, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}).AccessesPerSec

	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		return err
	}
	raw := enc.Bytes()
	record("replay/stream", accesses, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := trace.NewStream(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunStream(st, policy, *pressure, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	if policy != lruPolicy {
		// The cross-policy comparison row: the same trace replayed under
		// LRU on its devirtualized kernel, so the report always quantifies
		// the engine's cost beyond the FIFO family.
		lruNs := record("replay/lru", accesses, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(tr, lruPolicy, *pressure, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp
		if genericNs > 0 {
			rep.LRUCostVsGeneric = lruNs / genericNs
		}
	}

	sweepTraces, sweepAccesses, err := sweepWorkload(*sweepScale)
	if err != nil {
		return err
	}
	sweepPolicies := core.GranularitySweep(8)
	record("sweep", sweepAccesses*len(sweepPolicies), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Sweep(sweepTraces, sweepPolicies, *pressure, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The kernel-vs-kernel pair: the same granularity x pressure ladder on
	// the replay trace, sequentially per config and through the single-pass
	// kernel. Both rows count ladder-equivalent accesses, so the APS ratio
	// is the kernel's speedup on identical work.
	ladderCfgs := pressureLadder(sweepPolicies, []int{1, 2, 3, 4, 6, 8})
	if err := singlePassSelfCheck(tr, ladderCfgs); err != nil {
		return err
	}
	perConfigAPS := record("sweep/perconfig", accesses*len(ladderCfgs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range ladderCfgs {
				if _, err := sim.Run(tr, cfg.Policy, cfg.Pressure, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}).AccessesPerSec
	singlePassAPS := record("sweep/singlepass", accesses*len(ladderCfgs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunConfigs(tr, ladderCfgs, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}).AccessesPerSec
	if perConfigAPS > 0 {
		rep.SweepSpeedupVsPerConfig = singlePassAPS / perConfigAPS
	}

	// The sampling row replays only representative intervals but estimates
	// the whole ladder, so it counts full-ladder-equivalent accesses: its
	// APS is effective throughput, comparable against sweep/singlepass.
	// Restricted to the turnover regime (pressure >= 3) where the
	// estimator is accurate; the self-check holds every estimate to its
	// own bound and the two-point acceptance line before timing starts.
	sampledCfgs := pressureLadder(sweepPolicies, []int{3, 4, 6, 8})
	sampledTraces, err := sampledWorkload(tr, *scale)
	if err != nil {
		return err
	}
	sampledEff := 0
	for _, str := range sampledTraces {
		sampledEff += len(str.Accesses) * len(sampledCfgs)
	}
	rep.SampledMissRateError, rep.SampledMissRateBound, err = sampledSelfCheck(sampledTraces, sampledCfgs)
	if err != nil {
		return err
	}
	record("sweep/sampled", sampledEff, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, str := range sampledTraces {
				if _, err := sim.RunConfigsSampled(str, sampledCfgs, sim.SampleOptions{}, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	capacity, err := sim.CapacityFor(tr, *pressure)
	if err != nil {
		return err
	}
	// Service rows measure steady-state batch replay: the service is
	// built (tables reserved, owner goroutines started) once per row
	// outside the timed loop and warmed with one full replay, so
	// allocs/op reflects the replay protocol itself — the envelope pool,
	// the MPSC handoff, and the owner's devirtualized loop.
	sb, err := newServiceBench(tr, policy, capacity, 1, 1)
	if err != nil {
		return err
	}
	if err := sb.replay(tr); err != nil {
		return err
	}
	record("service/replay-batch", accesses, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sb.replay(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	sb.close()

	// A policy whose state a span migration would not move whole is
	// refused by Migrate, so it gets no migration row.
	if policy.Migratable() {
		if err := benchMigrate(tr, policy, capacity, *flipCeiling, rep, record); err != nil {
			return err
		}
	}

	procs, err := parseCPUList(*cpuList)
	if err != nil {
		return err
	}
	if len(procs) > 0 {
		// The contended scaling configuration: shards = procs, two
		// tenants pinned per shard, every tenant replaying the full trace
		// concurrently. One op therefore grows with p (2p full replays),
		// so accesses/sec — not ns/op — is the comparable metric.
		prev := runtime.GOMAXPROCS(0)
		var aps []float64
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			sbp, err := newServiceBench(tr, policy, capacity, p, 2)
			if err != nil {
				return err
			}
			if err := sbp.replay(tr); err != nil {
				return err
			}
			r := record(fmt.Sprintf("service/replay-batch/p%d", p), 2*p*accesses, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sbp.replay(tr); err != nil {
						b.Fatal(err)
					}
				}
			})
			sbp.close()
			aps = append(aps, r.AccessesPerSec)
		}
		runtime.GOMAXPROCS(prev)
		rep.Scaling = &scalingInfo{Procs: procs, AccessesPerSec: aps}
		first, last := 0, len(procs)-1
		if aps[first] > 0 && procs[last] > procs[first] {
			rep.Scaling.Efficiency = (aps[last] / aps[first]) / (float64(procs[last]) / float64(procs[first]))
		} else if procs[last] == procs[first] {
			// A single-point sweep (e.g. a 1-core machine) cannot measure
			// scaling; record perfect efficiency so the committed report
			// carries a value, and let multi-core runners gate for real.
			rep.Scaling.Efficiency = 1.0
		}
		fmt.Fprintf(os.Stderr, "scaling efficiency at p%d (vs p%d): %.2f\n",
			procs[last], procs[first], rep.Scaling.Efficiency)
		if *scalingFloor > 0 && procs[last] > procs[first] && rep.Scaling.Efficiency < *scalingFloor {
			return fmt.Errorf("scaling efficiency %.2f at %d procs is below the required floor %.2f",
				rep.Scaling.Efficiency, procs[last], *scalingFloor)
		}
	}

	if legacyAPS > 0 {
		rep.ReplaySpeedupVsLegacy = specializedAPS / legacyAPS
	}
	fmt.Fprintf(os.Stderr, "replay speedup vs legacy: %.2fx\n", rep.ReplaySpeedupVsLegacy)
	if rep.LRUCostVsGeneric > 0 {
		fmt.Fprintf(os.Stderr, "lru cost vs generic: %.2fx\n", rep.LRUCostVsGeneric)
	}
	if rep.SweepSpeedupVsPerConfig > 0 {
		fmt.Fprintf(os.Stderr, "sweep speedup vs per-config: %.2fx\n", rep.SweepSpeedupVsPerConfig)
	}
	fmt.Fprintf(os.Stderr, "sampled miss-rate error %.4f (worst bound %.4f)\n",
		rep.SampledMissRateError, rep.SampledMissRateBound)

	if *baselineNs > 0 {
		rep.Baseline = &baselineInfo{
			Commit:         *baselineCommit,
			NsPerOp:        *baselineNs,
			AccessesPerSec: float64(accesses) / (*baselineNs / 1e9),
			AllocsPerOp:    *baselineAllocs,
		}
		rep.ReplaySpeedupVsBaseline = specializedAPS / rep.Baseline.AccessesPerSec
		fmt.Fprintf(os.Stderr, "replay speedup vs baseline %s: %.2fx\n",
			rep.Baseline.Commit, rep.ReplaySpeedupVsBaseline)
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "-" {
		if _, err = os.Stdout.Write(doc); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}

	if *gate != "" {
		return gateAgainst(rep, *gate, *gateDrop)
	}
	return nil
}

// gateAgainst compares the fresh report's replay speedup against a
// committed report and fails on a regression beyond maxDrop. The gated
// metric is the specialized kernel's throughput relative to the frozen
// legacy loop measured in the same process, which cancels out the raw
// speed of the machine running the comparison.
func gateAgainst(rep *benchReport, path string, maxDrop float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	var committed benchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("gate: parse %s: %w", path, err)
	}
	if committed.ReplaySpeedupVsLegacy <= 0 {
		return fmt.Errorf("gate: %s has no replay_speedup_vs_legacy to gate against", path)
	}
	floor := committed.ReplaySpeedupVsLegacy * (1 - maxDrop)
	fmt.Fprintf(os.Stderr, "gate: replay speedup vs legacy %.2fx, committed %.2fx, floor %.2fx\n",
		rep.ReplaySpeedupVsLegacy, committed.ReplaySpeedupVsLegacy, floor)
	if rep.ReplaySpeedupVsLegacy < floor {
		return fmt.Errorf("gate: replay speedup vs legacy regressed to %.2fx, more than %.0f%% below the committed %.2fx (%s)",
			rep.ReplaySpeedupVsLegacy, maxDrop*100, committed.ReplaySpeedupVsLegacy, path)
	}
	if err := gateRecency(rep, &committed, path, maxDrop); err != nil {
		return err
	}
	if err := gateSweepSpeedup(rep, &committed, path, maxDrop); err != nil {
		return err
	}
	return gateScaling(rep, &committed, path, maxDrop)
}

// gateSweepSpeedup holds the single-pass kernel's speedup over per-config
// replays to its committed value — the same committed-relative clause the
// replay speedup uses, since both are within-process ratios.
func gateSweepSpeedup(rep, committed *benchReport, path string, maxDrop float64) error {
	if rep.SweepSpeedupVsPerConfig <= 0 || committed.SweepSpeedupVsPerConfig <= 0 {
		return nil // row absent on one side; nothing comparable
	}
	floor := committed.SweepSpeedupVsPerConfig * (1 - maxDrop)
	fmt.Fprintf(os.Stderr, "gate: sweep speedup vs per-config %.2fx, committed %.2fx, floor %.2fx\n",
		rep.SweepSpeedupVsPerConfig, committed.SweepSpeedupVsPerConfig, floor)
	if rep.SweepSpeedupVsPerConfig < floor {
		return fmt.Errorf("gate: sweep speedup vs per-config regressed to %.2fx, more than %.0f%% below the committed %.2fx (%s)",
			rep.SweepSpeedupVsPerConfig, maxDrop*100, committed.SweepSpeedupVsPerConfig, path)
	}
	return nil
}

// lruCostCeiling is the absolute target for the exact-LRU kernel:
// replaying under LRU should cost under this multiple of the generic
// FIFO kernel's ns/op. Paired measurement on the reference box puts the
// ratio at ~1.98x mean with single-run spread 1.7x-2.2x (down from the
// 2.7x fragmentation-burst gap against the specialized kernel), so a
// fresh run straddles the target inside normal noise. The gate therefore
// grants the same maxDrop allowance the relative gates use — a run fails
// only at lruCostCeiling*(1+maxDrop) — which still catches any change
// that reopens the historical gap.
const lruCostCeiling = 2.0

// gateRecency holds the LRU kernel's cost ratio to its committed value
// (same maxDrop tolerance as the replay speedup — here a cost *increase*
// is the regression) and enforces the absolute LRU ceiling. The ratio is
// within-process, so it transfers across machines.
func gateRecency(rep, committed *benchReport, path string, maxDrop float64) error {
	if rep.LRUCostVsGeneric > 0 {
		hardCeil := lruCostCeiling * (1 + maxDrop)
		fmt.Fprintf(os.Stderr, "gate: lru cost vs generic %.2fx, ceiling %.2fx (+%.0f%% noise allowance)\n",
			rep.LRUCostVsGeneric, lruCostCeiling, maxDrop*100)
		if rep.LRUCostVsGeneric >= hardCeil {
			return fmt.Errorf("gate: lru kernel costs %.2fx the generic FIFO kernel, at or above the %.1fx ceiling plus %.0f%% noise allowance",
				rep.LRUCostVsGeneric, lruCostCeiling, maxDrop*100)
		}
	}
	fresh, base := rep.LRUCostVsGeneric, committed.LRUCostVsGeneric
	if fresh <= 0 || base <= 0 {
		return nil // row absent on one side; nothing comparable
	}
	ceil := base * (1 + maxDrop)
	fmt.Fprintf(os.Stderr, "gate: lru_cost_vs_generic %.2fx, committed %.2fx, ceiling %.2fx\n",
		fresh, base, ceil)
	if fresh > ceil {
		return fmt.Errorf("gate: lru_cost_vs_generic regressed to %.2fx, more than %.0f%% above the committed %.2fx (%s)",
			fresh, maxDrop*100, base, path)
	}
	return nil
}

// gateScaling compares multi-core scaling efficiency against the
// committed report. Efficiency is a within-process ratio like the replay
// speedup, but it is only comparable when both runs swept the same
// GOMAXPROCS ladder — a report generated on a 1-core box records a
// single-point sweep, which a 4-core runner must not be judged against
// (nor vice versa), so mismatched ladders warn and skip instead of
// failing.
func gateScaling(rep, committed *benchReport, path string, maxDrop float64) error {
	if committed.Scaling == nil || rep.Scaling == nil {
		return nil
	}
	cp, fp := committed.Scaling.Procs, rep.Scaling.Procs
	if !equalInts(cp, fp) {
		fmt.Fprintf(os.Stderr, "gate: scaling sweep procs %v differ from committed %v (%s); skipping scaling comparison\n",
			fp, cp, path)
		return nil
	}
	if len(cp) < 2 || cp[len(cp)-1] <= cp[0] {
		return nil // single-point sweep measures nothing
	}
	floor := committed.Scaling.Efficiency * (1 - maxDrop)
	fmt.Fprintf(os.Stderr, "gate: scaling efficiency %.2f, committed %.2f, floor %.2f\n",
		rep.Scaling.Efficiency, committed.Scaling.Efficiency, floor)
	if rep.Scaling.Efficiency < floor {
		return fmt.Errorf("gate: scaling efficiency regressed to %.2f, more than %.0f%% below the committed %.2f (%s)",
			rep.Scaling.Efficiency, maxDrop*100, committed.Scaling.Efficiency, path)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benchMigrate records the service/migrate row: one tenant populated
// with the full trace ping-pongs between two shards. An op is a round
// trip — two live handoffs moving the whole resident span — ending where
// it started, so every iteration relocates the same state.
// AccessesPerSec is meaningless here; the row's ns/op is the handoff
// cost and the report carries the flip-pause ceiling check.
func benchMigrate(tr *trace.Trace, policy core.Policy, capacity int, flipCeiling time.Duration,
	rep *benchReport, record func(string, int, func(*testing.B)) benchResult) error {
	msvc, err := service.New(service.Config{Shards: 2, Policy: policy, ShardCapacity: capacity})
	if err != nil {
		return err
	}
	mtn, err := msvc.RegisterPinned(tr.Name, 0, traceSpan(tr))
	if err != nil {
		msvc.Close()
		return err
	}
	msb := &serviceBench{svc: msvc, tenants: []*service.Tenant{mtn}, regen: traceRegen(tr)}
	if err := msb.replay(tr); err != nil {
		msvc.Close()
		return err
	}
	record("service/migrate", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := msvc.Migrate(tr.Name, 1); err != nil {
				b.Fatal(err)
			}
			if err := msvc.Migrate(tr.Name, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := msvc.CheckConsistency(); err != nil {
		msvc.Close()
		return fmt.Errorf("service/migrate: ledger broken after handoffs: %w", err)
	}
	migStats := msvc.MigrationStats()
	msb.close()
	rep.MigrateFlipPauseMaxNs = migStats.FlipPauseMax.Nanoseconds()
	if migStats.Completed > 0 {
		rep.MigrateFlipPauseAvgNs = migStats.FlipPauseTotal.Nanoseconds() / int64(migStats.Completed)
	}
	fmt.Fprintf(os.Stderr, "migrate flip pause: avg %v, max %v over %d handoffs\n",
		time.Duration(rep.MigrateFlipPauseAvgNs), migStats.FlipPauseMax, migStats.Completed)
	if flipCeiling > 0 && migStats.FlipPauseMax > flipCeiling {
		return fmt.Errorf("service/migrate: flip pause %v exceeds the %v ceiling", migStats.FlipPauseMax, flipCeiling)
	}
	return nil
}

// selfCheck replays the trace once through every loop the report times
// and fails loudly unless they agree, so a kernel regression can never
// hide behind a flattering benchmark number.
func selfCheck(tr *trace.Trace, policy core.Policy, pressure int) error {
	want, err := legacyRun(tr, policy, pressure, sim.Options{})
	if err != nil {
		return fmt.Errorf("self-check: legacy replay: %w", err)
	}
	check := func(name string, got *sim.Result) error {
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			return fmt.Errorf("self-check: %s stats diverge from legacy:\n got %+v\nwant %+v", name, got.Stats, want.Stats)
		}
		if got.AppInstructions != want.AppInstructions {
			return fmt.Errorf("self-check: %s AppInstructions = %v, legacy %v", name, got.AppInstructions, want.AppInstructions)
		}
		return nil
	}
	got, err := sim.Run(tr, policy, pressure, sim.Options{})
	if err != nil {
		return fmt.Errorf("self-check: specialized replay: %w", err)
	}
	if err := check("specialized", got); err != nil {
		return err
	}
	got, err = sim.Run(tr, policy, pressure, sim.Options{ForceGeneric: true})
	if err != nil {
		return fmt.Errorf("self-check: generic replay: %w", err)
	}
	if err := check("generic", got); err != nil {
		return err
	}
	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		return err
	}
	st, err := trace.NewStream(bytes.NewReader(enc.Bytes()))
	if err != nil {
		return err
	}
	got, err = sim.RunStream(st, policy, pressure, sim.Options{})
	if err != nil {
		return fmt.Errorf("self-check: streamed replay: %w", err)
	}
	return check("stream", got)
}

// pressureLadder crosses the granularity sweep with a pressure ladder
// into the multi-configuration kernel's input.
func pressureLadder(policies []core.Policy, pressures []int) []sim.SweepConfig {
	cfgs := make([]sim.SweepConfig, 0, len(policies)*len(pressures))
	for _, pol := range policies {
		for _, p := range pressures {
			cfgs = append(cfgs, sim.SweepConfig{Policy: pol, Pressure: p})
		}
	}
	return cfgs
}

// singlePassSelfCheck proves the multi-configuration kernel is the same
// computation as the per-config replays it is timed against: every
// core.Stats field must match bit for bit over the whole ladder.
func singlePassSelfCheck(tr *trace.Trace, cfgs []sim.SweepConfig) error {
	multi, err := sim.RunConfigs(tr, cfgs, sim.Options{})
	if err != nil {
		return fmt.Errorf("self-check: single-pass replay: %w", err)
	}
	for i, cfg := range cfgs {
		single, err := sim.Run(tr, cfg.Policy, cfg.Pressure, sim.Options{})
		if err != nil {
			return fmt.Errorf("self-check: per-config replay %s p%d: %w", cfg.Policy, cfg.Pressure, err)
		}
		if !reflect.DeepEqual(multi[i].Stats, single.Stats) {
			return fmt.Errorf("self-check: single-pass stats diverge from per-config at %s p%d:\n got %+v\nwant %+v",
				cfg.Policy, cfg.Pressure, multi[i].Stats, single.Stats)
		}
	}
	return nil
}

// sampledMaxAbsError is the sampling estimator's acceptance line on the
// calibrated traces in the turnover regime: two points of absolute
// miss-rate error (measured worst cases at full scale: word 0.0098,
// vortex 0.0189).
const sampledMaxAbsError = 0.02

// sampledSelfCheck runs the estimator against the full replay on every
// sampled-row trace and fails unless each estimate sits within its own
// reported bound and the acceptance line. Returns the worst error and
// worst bound for the report.
func sampledSelfCheck(traces []*trace.Trace, cfgs []sim.SweepConfig) (maxErr, maxBound float64, err error) {
	for _, tr := range traces {
		full, err := sim.RunConfigs(tr, cfgs, sim.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("self-check: full replay of %s: %w", tr.Name, err)
		}
		ss, err := sim.RunConfigsSampled(tr, cfgs, sim.SampleOptions{}, sim.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("self-check: sampled replay of %s: %w", tr.Name, err)
		}
		for i, cfg := range cfgs {
			e := ss.Results[i].MissRate - full[i].Stats.MissRate()
			if e < 0 {
				e = -e
			}
			if e > ss.Results[i].ErrorBound {
				return 0, 0, fmt.Errorf("self-check: sampled %s %s p%d error %.4f exceeds its own bound %.4f",
					tr.Name, cfg.Policy, cfg.Pressure, e, ss.Results[i].ErrorBound)
			}
			if e > sampledMaxAbsError {
				return 0, 0, fmt.Errorf("self-check: sampled %s %s p%d error %.4f over the %.2f acceptance line",
					tr.Name, cfg.Policy, cfg.Pressure, e, sampledMaxAbsError)
			}
			if e > maxErr {
				maxErr = e
			}
			if ss.Results[i].ErrorBound > maxBound {
				maxBound = ss.Results[i].ErrorBound
			}
		}
	}
	return maxErr, maxBound, nil
}

// sampledWorkload returns the sampling row's traces — word and vortex at
// the replay scale, reusing the already synthesized replay trace when it
// is one of them.
func sampledWorkload(tr *trace.Trace, scale float64) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for _, name := range []string{"word", "vortex"} {
		if tr.Name == name {
			out = append(out, tr)
			continue
		}
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		str, err := p.Scaled(scale).Synthesize()
		if err != nil {
			return nil, err
		}
		out = append(out, str)
	}
	return out, nil
}

// sweepWorkload synthesizes every Table 1 benchmark at the given scale
// and returns the traces plus their summed access count.
func sweepWorkload(scale float64) ([]*trace.Trace, int, error) {
	var (
		traces   []*trace.Trace
		accesses int
	)
	for _, p := range workload.ScaledTable1(scale) {
		tr, err := p.Synthesize()
		if err != nil {
			return nil, 0, err
		}
		traces = append(traces, tr)
		accesses += len(tr.Accesses)
	}
	return traces, accesses, nil
}

// parseCPUList resolves the -cpu flag into a sorted, deduplicated
// GOMAXPROCS ladder. "auto" yields the powers of two up to NumCPU (with
// NumCPU itself always included), "" disables the sweep entirely.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var procs []int
	if s == "auto" {
		n := runtime.NumCPU()
		for p := 1; p < n; p *= 2 {
			procs = append(procs, p)
		}
		procs = append(procs, n)
	} else {
		for _, f := range strings.Split(s, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 {
				return nil, fmt.Errorf("bad -cpu entry %q (want positive integers)", f)
			}
			procs = append(procs, p)
		}
	}
	sort.Ints(procs)
	out := procs[:0]
	for i, p := range procs {
		if i == 0 || p != procs[i-1] {
			out = append(out, p)
		}
	}
	return out, nil
}

// traceSpan returns the dense ID universe of a trace (max ID + 1).
func traceSpan(tr *trace.Trace) core.SuperblockID {
	var maxID core.SuperblockID
	for id := range tr.Blocks {
		if id > maxID {
			maxID = id
		}
	}
	return maxID + 1
}

// traceRegen returns a regeneration callback serving blocks from the
// trace's table.
func traceRegen(tr *trace.Trace) func(core.SuperblockID) (core.Superblock, error) {
	return func(id core.SuperblockID) (core.Superblock, error) {
		sb, ok := tr.Blocks[id]
		if !ok {
			return core.Superblock{}, fmt.Errorf("undefined block %d", id)
		}
		return sb, nil
	}
}

// serviceBench is one service benchmark configuration: a running
// shared-nothing service plus its registered tenants, reused across
// benchmark iterations so the timed loop measures steady-state replay,
// not construction.
type serviceBench struct {
	svc     *service.Service
	tenants []*service.Tenant
	regen   func(core.SuperblockID) (core.Superblock, error)
}

// newServiceBench builds a service with the given shard count and
// tenantsPerShard tenants pinned round-robin onto the shards.
func newServiceBench(tr *trace.Trace, policy core.Policy, capacity, shards, tenantsPerShard int) (*serviceBench, error) {
	svc, err := service.New(service.Config{Shards: shards, Policy: policy, ShardCapacity: capacity})
	if err != nil {
		return nil, err
	}
	span := traceSpan(tr)
	tenants := make([]*service.Tenant, shards*tenantsPerShard)
	for i := range tenants {
		tn, err := svc.RegisterPinned(fmt.Sprintf("tenant-%d", i), i%shards, span)
		if err != nil {
			svc.Close()
			return nil, err
		}
		tenants[i] = tn
	}
	return &serviceBench{svc: svc, tenants: tenants, regen: traceRegen(tr)}, nil
}

func (sb *serviceBench) close() { sb.svc.Close() }

// replay drives every tenant through the full trace via ReplayBatch in
// AccessChunk batches, concurrently when there is more than one tenant
// (retrying on backpressure with the hinted delay, capped to keep
// retries responsive).
func (sb *serviceBench) replay(tr *trace.Trace) error {
	if len(sb.tenants) == 1 {
		return sb.replayOne(tr, sb.tenants[0])
	}
	errc := make(chan error, len(sb.tenants))
	for _, tn := range sb.tenants {
		go func(tn *service.Tenant) {
			errc <- sb.replayOne(tr, tn)
		}(tn)
	}
	var firstErr error
	for range sb.tenants {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (sb *serviceBench) replayOne(tr *trace.Trace, tn *service.Tenant) error {
	ids := tr.Accesses
	for len(ids) > 0 {
		n := trace.AccessChunk
		if n > len(ids) {
			n = len(ids)
		}
		for {
			err := tn.ReplayBatch(ids[:n], sb.regen)
			if err == nil {
				break
			}
			var busy *service.BacklogError
			if !errors.As(err, &busy) {
				return err
			}
			delay := busy.RetryAfter
			if delay > 2*time.Millisecond {
				delay = 2 * time.Millisecond
			}
			time.Sleep(delay)
		}
		ids = ids[n:]
	}
	return nil
}

// serviceSelfCheck proves the service's owner-goroutine replay is
// bit-identical to a solo sim replay before any service row is timed: a
// tenant alone on one shard replays the trace and its ledger must equal
// the solo kernel's counters field for field, with the double-entry
// ledger closing on top.
func serviceSelfCheck(tr *trace.Trace, policy core.Policy, pressure int) error {
	capacity, err := sim.CapacityFor(tr, pressure)
	if err != nil {
		return err
	}
	want, err := sim.Run(tr, policy, pressure, sim.Options{})
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{Shards: 1, Policy: policy, ShardCapacity: capacity})
	if err != nil {
		return err
	}
	defer svc.Close()
	tn, err := svc.Register(tr.Name, traceSpan(tr))
	if err != nil {
		return err
	}
	regen := traceRegen(tr)
	ids := tr.Accesses
	for len(ids) > 0 {
		n := trace.AccessChunk
		if n > len(ids) {
			n = len(ids)
		}
		if err := tn.ReplayBatch(ids[:n], regen); err != nil {
			return err
		}
		ids = ids[n:]
	}
	if err := svc.CheckConsistency(); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	got, ws := tn.Stats(), want.Stats
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Accesses", got.Accesses, ws.Accesses},
		{"Hits", got.Hits, ws.Hits},
		{"Misses", got.Misses, ws.Misses},
		{"InsertedBlocks", got.InsertedBlocks, ws.InsertedBlocks},
		{"InsertedBytes", got.InsertedBytes, ws.InsertedBytes},
		{"EvictionInvocations", got.EvictionInvocations, ws.EvictionInvocations},
		{"BlocksEvicted", got.BlocksEvicted, ws.BlocksEvicted},
		{"BytesEvicted", got.BytesEvicted, ws.BytesEvicted},
	} {
		if c.got != c.want {
			return fmt.Errorf("self-check: service %s = %d diverges from solo replay's %d", c.name, c.got, c.want)
		}
	}
	return nil
}
