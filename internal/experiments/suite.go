// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a runner returning both the raw numbers
// (for tests and benchmarks) and a rendered artifact (for reports); RunAll
// regenerates the whole evaluation in paper order.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured results
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sync"

	"dynocache/internal/core"
	"dynocache/internal/overhead"
	"dynocache/internal/sim"
	"dynocache/internal/trace"
	"dynocache/internal/workload"
)

// Config scales and parameterizes the experiment suite.
type Config struct {
	// Scale multiplies every benchmark's superblock count. 1.0 reproduces
	// Table 1 exactly; smaller values give fast approximate runs.
	Scale float64
	// Pressures is the cache-pressure sweep (the paper uses 2..10).
	Pressures []int
	// MaxUnits bounds the granularity sweep (FLUSH, 2..MaxUnits units in
	// powers of two, fine-grained FIFO).
	MaxUnits int
	// CensusEvery controls link-census sampling during simulation.
	CensusEvery int
	// Model prices events (Equations 2-4 by default).
	Model overhead.Model
	// AppInstrPerAccess anchors execution-time estimates (§5.3): the mean
	// number of guest instructions executed inside the cache per code
	// cache lookup.
	AppInstrPerAccess float64
	// Verify runs every simulation under the check package's
	// verification wrapper (structural invariant wall plus the map-based
	// oracle differ for FIFO-family policies). Results are identical to
	// an unverified run; the run is a few times slower.
	Verify bool
}

// DefaultConfig reproduces the paper's setup at full Table 1 scale.
// A complete RunAll takes about 12 s of CPU time (9 s wall on a 2-CPU
// x86 box, go1.24.0).
func DefaultConfig() Config {
	return Config{
		Scale:             1.0,
		Pressures:         []int{2, 4, 6, 8, 10},
		MaxUnits:          64,
		CensusEvery:       2000,
		Model:             overhead.Paper(),
		AppInstrPerAccess: 2000,
	}
}

// QuickConfig runs the same experiments on 5%-scale workloads; shapes are
// preserved, absolute counts shrink. Used by tests and benchmarks.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.CensusEvery = 500
	return cfg
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 {
		return fmt.Errorf("experiments: scale must be positive, got %g", c.Scale)
	}
	if len(c.Pressures) == 0 {
		return fmt.Errorf("experiments: no pressure factors")
	}
	for _, p := range c.Pressures {
		if p < 1 {
			return fmt.Errorf("experiments: bad pressure factor %d", p)
		}
	}
	if c.MaxUnits < 2 {
		return fmt.Errorf("experiments: MaxUnits must be >= 2, got %d", c.MaxUnits)
	}
	if c.AppInstrPerAccess < 0 {
		return fmt.Errorf("experiments: negative AppInstrPerAccess")
	}
	return c.Model.Validate()
}

// Suite holds synthesized workloads and memoized simulation sweeps so that
// figures sharing a configuration share the work — the analogue of reusing
// the saved DynamoRIO logs across experiments.
type Suite struct {
	cfg      Config
	profiles []workload.Profile
	traces   []*trace.Trace
	byName   map[string]*trace.Trace

	policies    []core.Policy
	policyNames []string

	mu     sync.Mutex
	sweeps map[int]*sim.SweepResult // keyed by pressure factor
	merged map[string]*trace.Trace  // interleaved workloads, keyed by label
}

// NewSuite synthesizes all Table 1 workloads at the configured scale.
func NewSuite(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Suite{
		cfg:    cfg,
		byName: make(map[string]*trace.Trace),
		sweeps: make(map[int]*sim.SweepResult),
		merged: make(map[string]*trace.Trace),
	}
	s.profiles = workload.ScaledTable1(cfg.Scale)
	for _, p := range s.profiles {
		tr, err := p.Synthesize()
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, tr)
		s.byName[p.Name] = tr
	}
	s.policies = core.GranularitySweep(cfg.MaxUnits)
	s.policyNames = make([]string, len(s.policies))
	for i, p := range s.policies {
		s.policyNames[i] = p.String()
	}
	return s, nil
}

// Config returns the suite's configuration.
func (s *Suite) Config() Config { return s.cfg }

// Traces exposes the synthesized workloads.
func (s *Suite) Traces() []*trace.Trace { return s.traces }

// traceByName returns the suite's synthesized trace for a Table 1
// benchmark, so experiments never re-synthesize what NewSuite built.
func (s *Suite) traceByName(name string) (*trace.Trace, error) {
	if tr, ok := s.byName[name]; ok {
		return tr, nil
	}
	return nil, fmt.Errorf("experiments: benchmark %q not in suite", name)
}

// multiprogTrace returns (building and memoizing on first use) the
// interleaved multiprogrammed workload over the named benchmarks, reusing
// the suite's solo traces.
func (s *Suite) multiprogTrace(quantum int, names []string) (*trace.Trace, error) {
	label := "multiprog"
	solos := make([]*trace.Trace, 0, len(names))
	for _, n := range names {
		tr, err := s.traceByName(n)
		if err != nil {
			return nil, err
		}
		solos = append(solos, tr)
		label += "+" + n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.merged[label]; ok {
		return tr, nil
	}
	tr, err := workload.Interleave(label, quantum, solos...)
	if err != nil {
		return nil, err
	}
	s.merged[label] = tr
	return tr, nil
}

// Policies returns the granularity sweep used across figures. Callers
// must not mutate the returned slice.
func (s *Suite) Policies() []core.Policy { return s.policies }

// PolicyNames returns the sweep's display labels. Callers must not mutate
// the returned slice.
func (s *Suite) PolicyNames() []string { return s.policyNames }

// Sweep returns (computing and memoizing on first use) the full
// policy x benchmark simulation at one pressure factor.
func (s *Suite) Sweep(pressure int) (*sim.SweepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[pressure]; ok {
		return sw, nil
	}
	// SinglePass drives the whole granularity ladder through the
	// multi-configuration kernel, one pass per trace; under Verify the
	// option is inert and the sweep falls back to per-config jobs.
	sw, err := sim.Sweep(s.traces, s.Policies(), pressure, sim.Options{CensusEvery: s.cfg.CensusEvery, Verify: s.cfg.Verify, SinglePass: true})
	if err != nil {
		return nil, err
	}
	s.sweeps[pressure] = sw
	return sw, nil
}

// policyIndex locates a policy in the sweep by display name.
func (s *Suite) policyIndex(name string) (int, error) {
	for i, p := range s.Policies() {
		if p.String() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: policy %q not in sweep", name)
}
