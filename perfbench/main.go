// Command perfbench is the repository benchmark. It runs one workload of
// the dynocache stack, checks the workload's outputs against independent
// references, and prints every metric with its unit. It measures each
// layer from outside, by timing calls into the public functions of the
// repository's packages:
//
//	paper-report     the whole full-scale evaluation (experiments.Suite)
//	policy-replay    single-config sim.Run / sim.RunStream on full traces
//	verified-replay  sim.Run under the check package's verification wall
//	serve-tenants    a closed loop of ReplayBatch clients with migrations
//
// Usage, from the repository root:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// keeps layer spans in memory, writes them under .bench_out at the end,
// and reports per-layer metrics derived from them. Every workload reports
// the same metric names, the ones BENCHMARK.json lists for the mode. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it repeats every metric
// with its sample count, adds the figures only one workload has (its
// layers' breakdown), the environment, the simulated counts and the gate
// self-test. A failed correctness gate prints correct=false and exits 1;
// any other error exits 1 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds what runs leave behind: the simulated counts each seed
// produced (for the cross-run repeat check) and traced runs' spans.
const outDir = ".bench_out"

// manifestFile lists the metrics every workload reports: end_to_end with
// --trace 0, per_layer with --trace 1.
const manifestFile = "BENCHMARK.json"

type runEnv struct {
	seed    uint64
	seconds float64
	traced  bool
	tr      *tracer
}

var workloads = map[string]func(*runEnv) (*result, error){
	"paper-report":    runPaperReport,
	"policy-replay":   runPolicyReplay,
	"verified-replay": runVerifiedReplay,
	"serve-tenants":   runServeTenants,
}

func main() {
	name := flag.String("workload", "", "workload to run (paper-report, policy-replay, verified-replay, serve-tenants)")
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs float64, traceFlag int) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if secs <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", secs)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	want, err := loadManifest(traceFlag == 1)
	if err != nil {
		return err
	}
	env := &runEnv{seed: seed, seconds: secs, traced: traceFlag == 1, tr: newTracer(traceFlag == 1)}
	res, err := wl(env)
	var gate *gateError
	if err != nil && !errors.As(err, &gate) {
		return err
	}
	repeat := "not checked"
	if err == nil {
		repeat, err = checkRepeat(name, seed, res.counts)
		if err != nil && !errors.As(err, &gate) {
			return err
		}
	}
	if env.traced {
		if werr := env.tr.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-%d.json", name, seed))); werr != nil {
			return fmt.Errorf("writing spans: %w", werr)
		}
	}
	if res == nil {
		res = &result{}
	}
	if perr := printResult(name, env, res, want, repeat, err); perr != nil {
		return perr
	}
	if err != nil {
		return fmt.Errorf("run is incorrect: %w", err)
	}
	return nil
}

// checkRepeat compares the run's simulated counts with those an earlier
// run of the same workload and seed recorded, or records them.
func checkRepeat(name string, seed uint64, counts map[string]uint64) (string, error) {
	if len(counts) == 0 {
		return "", fmt.Errorf("workload %s recorded no simulated counts", name)
	}
	path := filepath.Join(outDir, "counts", fmt.Sprintf("%s-%d.json", name, seed))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(data, &prev); err != nil {
			return "", fmt.Errorf("reading %s: %w", path, err)
		}
		keys := make([]string, 0, len(counts)+len(prev))
		for k := range counts {
			keys = append(keys, k)
		}
		for k := range prev {
			if _, ok := counts[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			got, ok1 := counts[k]
			want, ok2 := prev[k]
			switch {
			case !ok1:
				return "", gatef("simulated count %s is missing; an earlier run with seed %d recorded it", k, seed)
			case !ok2:
				return "", gatef("simulated count %s is new; an earlier run with seed %d did not record it", k, seed)
			case got != want:
				return "", gatef("simulated count %s is %d, an earlier run with seed %d recorded %d", k, got, seed, want)
			}
		}
		return "matched an earlier run", nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	data, err := json.Marshal(counts)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	return "recorded", os.Rename(tmp, path)
}

// manifestMetric is one metric BENCHMARK.json lists.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadManifest reads the metrics a run of the mode must report.
func loadManifest(traced bool) ([]manifestMetric, error) {
	data, err := os.ReadFile(manifestFile)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("reading %s: %w", manifestFile, err)
	}
	if traced {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// printResult prints the detail line, with every metric the run made,
// and the result line, with exactly the manifest's metrics. A gate that
// failed may have stopped the run before it measured them all; a run
// that passed and still lacks one is an error, and prints no result.
func printResult(name string, env *runEnv, res *result, want []manifestMetric, repeat string, gateErr error) error {
	type detailMetric struct {
		Name    string    `json:"name"`
		Value   float64   `json:"value"`
		Unit    string    `json:"unit"`
		Samples int       `json:"samples"`
		Rounds  []float64 `json:"rounds,omitempty"`
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	detail := struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Traced   bool              `json:"traced"`
		Env      map[string]any    `json:"env"`
		Metrics  []detailMetric    `json:"metrics"`
		Counts   map[string]uint64 `json:"counts"`
		Repeat   string            `json:"counts_repeat"`
		SelfTest []string          `json:"gate_selftest"`
		Notes    map[string]any    `json:"notes,omitempty"`
		Error    string            `json:"error,omitempty"`
	}{
		Workload: name, Seed: env.seed, Traced: env.traced,
		Env: environment(), Counts: res.counts, Repeat: repeat,
		SelfTest: res.selftest, Notes: res.notes,
	}
	made := map[string]metric{}
	for _, m := range res.metrics {
		if _, dup := made[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		made[m.name] = m
		detail.Metrics = append(detail.Metrics, detailMetric{m.name, m.value, m.unit, m.samples, m.rounds})
	}
	metrics := map[string]valueUnit{}
	for _, w := range want {
		m, ok := made[w.Name]
		switch {
		case !ok && gateErr != nil:
			continue
		case !ok:
			return fmt.Errorf("workload %s did not measure %s", name, w.Name)
		case m.unit != w.Unit:
			return fmt.Errorf("metric %s is in %s, %s lists %s", w.Name, m.unit, manifestFile, w.Unit)
		}
		metrics[w.Name] = valueUnit{m.value, m.unit}
	}
	if gateErr != nil {
		detail.Error = gateErr.Error()
	}
	line, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	last, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{gateErr == nil, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(line))
	fmt.Println(string(last))
	return nil
}

// environment records what the absolute numbers depend on.
func environment() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.py
	if commit == "" {
		commit = "unknown (not a git checkout)"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}
