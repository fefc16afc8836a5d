package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/experiments"
)

// fullReport is the committed full-scale report, the reference the
// paper-report workload's output must match byte for byte after its
// first line, the command-line tool's header. The paper's calibrated
// profiles are fixed inputs, so the seed is not applied: this file is the
// only correctness reference for them.
const fullReport = "results/full_report.txt"

// paperSetups is how many times a run synthesizes the suite before its
// first round, so setup_s is a median even when one round fills the run.
const paperSetups = 3

// sectionLayer names the layer whose runner computes each report section.
var sectionLayer = map[string]string{
	"Table 1":                            "experiments.figures",
	"Figure 3":                           "experiments.figures",
	"Figure 4":                           "experiments.figures",
	"Figure 6":                           "experiments.figures",
	"Figure 7":                           "experiments.figures",
	"Figure 8":                           "experiments.figures",
	"Figure 9 / Equation 2":              "papi.fits",
	"Equation 3":                         "papi.fits",
	"Figure 10":                          "experiments.figures",
	"Figure 11":                          "experiments.figures",
	"Figure 12":                          "experiments.figures",
	"Table 2":                            "dbt.table2",
	"Figure 13":                          "experiments.figures",
	"Equation 4":                         "papi.fits",
	"Figure 14":                          "experiments.figures",
	"Figure 15":                          "experiments.figures",
	"Section 5.3":                        "experiments.figures",
	"Extension: multiprogramming":        "experiments.extensions",
	"Extension: cost-model sensitivity":  "experiments.extensions",
	"Extension: design-choice ablations": "experiments.ablations",
	"Appendix: per-benchmark crossover at pressure 10": "experiments.figures",
}

// paperLayers are the per-layer self times the traced run reports.
var paperLayers = []string{
	"experiments.figures", "experiments.ablations", "experiments.extensions",
	"dbt.table2", "papi.fits", "report.render",
}

// runPaperReport times the whole full-scale evaluation: the pressure
// sweep through the multi-config kernel (explicit Suite.Sweep calls, so
// the traced run can time it), then RunAll for the figures, Table 2's DBT
// runs, the fits, the ablations, the extensions and the render. A round
// is one fresh Suite; round_s is its process CPU time, summed over the
// sweep's worker threads, and report_wall_s its wall time. A traced run
// alternates untraced and traced rounds, at least untraced, traced,
// untraced, so the tracing overhead and the untraced spread beside it are
// measured within the run.
func runPaperReport(env *runEnv) (*result, error) {
	ref, err := os.ReadFile(fullReport)
	if err != nil {
		return nil, fmt.Errorf("reading the reference report: %w", err)
	}
	header, want, ok := bytes.Cut(ref, []byte("\n"))
	if !ok || !bytes.HasPrefix(header, []byte("dynocache experiment suite")) {
		return nil, fmt.Errorf("%s does not start with the experiment suite header", fullReport)
	}
	cfg := experiments.DefaultConfig()
	res := &result{notes: map[string]any{
		"scale": cfg.Scale, "seed_applied": false, "reference": fullReport,
		"operation": "one report section",
	}}
	var (
		setups, cpus, walls, sweeps, sweepRate []float64
		layers                                 = map[string][]float64{}
		rounds                                 traceRounds
		suite                                  *experiments.Suite
		report                                 []byte
	)
	synthesize := func(tr *tracer) error {
		d, err := tr.cpuTimed("workload.synthesize", 0, func() (err error) {
			suite, err = experiments.NewSuite(cfg)
			return err
		})
		setups = append(setups, d.Seconds())
		return err
	}
	for i := 0; i < paperSetups; i++ {
		if err := synthesize(env.tr); err != nil {
			return nil, err
		}
	}
	b := newBudget(env.seconds)
	for env.more(b) {
		start := time.Now()
		tr := env.roundTracer(b.rounds)
		if b.rounds > 0 {
			if err := synthesize(tr); err != nil {
				return nil, err
			}
		}
		c0 := cpuTime()
		root := tr.begin("paper-report", 0)
		var sweep time.Duration
		for _, p := range cfg.Pressures {
			d, err := tr.timed("sim.sweep", root, func() error {
				_, err := suite.Sweep(p)
				return err
			})
			if err != nil {
				res.failed++
				return res, err
			}
			sweep += d
		}
		clock := &sectionClock{tr: tr, root: root}
		if tr.keep {
			err = suite.RunAll(clock)
			clock.finish()
		} else {
			err = suite.RunAll(&clock.buf)
		}
		wall := tr.end(root)
		cpu := cpuTime() - c0
		report = clock.buf.Bytes()
		res.attempted += strings.Count(string(report), "\n==== ")
		if err != nil {
			res.failed++
			return res, fmt.Errorf("report: %w", err)
		}
		if err := gateReport(report, want); err != nil {
			return res, err
		}
		if clock.err != nil {
			return res, clock.err
		}
		cpus, walls = append(cpus, cpu.Seconds()), append(walls, wall.Seconds())
		rounds.add(tr, root, wall)
		if tr.keep {
			self := tr.selfTimes(root)
			for _, l := range paperLayers {
				layers[l] = append(layers[l], self[l].Seconds())
			}
			sweeps = append(sweeps, sweep.Seconds())
			sweepRate = append(sweepRate, float64(sweepConfigAccesses(suite, cfg.Pressures))/sweep.Seconds())
		}
		b.done(time.Since(start))
	}
	heap := retainedHeapMB()
	sum, err := addSweepCounts(res, suite, cfg.Pressures)
	if err != nil {
		return res, err
	}
	corrupt := bytes.Clone(report)
	corrupt[len(corrupt)/2] ^= 1
	if err := res.selfTest("one report byte flipped", gateReport(corrupt, want)); err != nil {
		return res, err
	}

	if !env.traced {
		res.median("setup_s", setups, "s")
		res.add("retained_heap_mb", heap, "MB", 1)
		res.median("round_s", cpus, "s")
		res.median("report_wall_s", walls, "s")
		return res, nil
	}
	res.median("workload.synthesize_s", setups, "s")
	nsPer := make([]float64, len(sweepRate))
	for i, r := range sweepRate {
		nsPer[i] = 1e9 / r
	}
	res.median("sim.ns_per_access", nsPer, "ns")
	res.coreMetrics(&sum)
	res.median("sim.sweep_s", sweeps, "s")
	res.median("sim.sweep_cfg_acc_per_s", sweepRate, "1/s")
	for _, l := range paperLayers {
		res.median(l+"_s", layers[l], "s")
	}
	return res, rounds.report(res)
}

// gateReport requires the rendered report to equal the reference bytes.
func gateReport(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return gatef("report differs from %s at line %d: got %q, want %q", fullReport, i+1, g, w)
		}
	}
	return gatef("report differs from %s", fullReport)
}

// sweepConfigAccesses is the sweep's work: every configuration replays
// every access of every trace, at each pressure.
func sweepConfigAccesses(s *experiments.Suite, pressures []int) int {
	n := 0
	for _, tr := range s.Traces() {
		n += len(tr.Accesses)
	}
	return n * len(s.Policies()) * len(pressures)
}

// addSweepCounts records the sweep's simulated counts per pressure,
// summed over policies and benchmarks (Sweep is memoized, so this
// re-reads the round's results), and returns them summed over pressures.
func addSweepCounts(res *result, s *experiments.Suite, pressures []int) (core.Stats, error) {
	var total core.Stats
	for _, p := range pressures {
		sw, err := s.Sweep(p)
		if err != nil {
			return total, err
		}
		var sum core.Stats
		for _, row := range sw.Results {
			for _, r := range row {
				addStats(&sum, &r.Stats)
			}
		}
		res.addCounts(fmt.Sprintf("sweep.p%d", p), &sum)
		addStats(&total, &sum)
	}
	return total, nil
}

// sectionClock is the report writer of a traced round. RunAll writes each
// "==== name ====" header in one call, then runs the section's
// experiment, then renders it; so a header opens a span for the layer
// that computes the section, the section's first body write closes it
// and opens a report.render span, and the next header closes that.
type sectionClock struct {
	tr        *tracer
	root      int
	buf       bytes.Buffer
	open      int
	rendering bool
	err       error
}

func (c *sectionClock) Write(p []byte) (int, error) {
	if name, ok := sectionName(p); ok {
		c.finish()
		layer, known := sectionLayer[name]
		if !known {
			layer = "unmapped"
			if c.err == nil {
				c.err = fmt.Errorf("report section %q has no layer in sectionLayer", name)
			}
		}
		c.open, c.rendering = c.tr.begin(layer, c.root), false
	} else if c.open != 0 && !c.rendering {
		c.tr.end(c.open)
		c.open, c.rendering = c.tr.begin("report.render", c.root), true
	}
	return c.buf.Write(p)
}

// finish closes the open span.
func (c *sectionClock) finish() {
	if c.open != 0 {
		c.tr.end(c.open)
		c.open = 0
	}
}

func sectionName(p []byte) (string, bool) {
	s := string(p)
	if !strings.HasPrefix(s, "\n==== ") || !strings.HasSuffix(s, " ====\n\n") {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(s, "\n==== "), " ====\n\n"), true
}
