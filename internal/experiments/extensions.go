package experiments

import (
	"fmt"

	"dynocache/internal/core"
	"dynocache/internal/report"
	"dynocache/internal/sim"
)

// This file holds experiments beyond the paper's figures: the
// multiprogramming scenario its introduction motivates, a sensitivity
// analysis over the measured cost coefficients, and the design-choice
// ablations listed in DESIGN.md §5.

// MultiprogResult compares eviction granularities on a shared cache
// running several programs at once.
type MultiprogResult struct {
	Workload string
	Policies []string
	// MissRates and RelOverhead (FLUSH=1) for the shared-cache run.
	MissRates   []float64
	RelOverhead []float64
	// SoloBlendMissRate is the access-weighted miss rate the same programs
	// would see with the same per-program capacity each (8-unit policy).
	SoloBlendMissRate float64
	SharedMissRate8   float64
}

// Multiprog runs the multiprogrammed-cache experiment: §2.3 argues cache
// limits matter because "users tend to execute several programs at once";
// here several benchmarks share one cache with round-robin context
// switches, and the granularity sweep is repeated on the merged workload.
func (s *Suite) Multiprog(names ...string) (*MultiprogResult, error) {
	if len(names) == 0 {
		names = []string{"gzip", "vpr", "crafty", "twolf"}
	}
	merged, err := s.multiprogTrace(2000, names)
	if err != nil {
		return nil, err
	}
	res := &MultiprogResult{Workload: merged.Name, Policies: s.PolicyNames()}

	// Equal hardware budget: the shared cache has the capacity one
	// average member would get at pressure 2, and the solo baseline runs
	// each program on a private cache of exactly the same capacity. The
	// difference between the two is pure multiprogramming interference.
	capacity := merged.TotalBytes() / (2 * len(names))
	opts := sim.Options{CensusEvery: s.cfg.CensusEvery, Capacity: capacity, Verify: s.cfg.Verify}

	var flush float64
	for i, pol := range s.Policies() {
		r, err := sim.Run(merged, pol, 1, opts)
		if err != nil {
			return nil, err
		}
		res.MissRates = append(res.MissRates, r.Stats.MissRate())
		total := r.Overhead(s.cfg.Model, true).Total()
		if i == 0 {
			flush = total
		}
		res.RelOverhead = append(res.RelOverhead, total/flush)
		if pol.String() == "8-unit" {
			res.SharedMissRate8 = r.Stats.MissRate()
		}
	}

	// Solo blend on private caches of the same capacity.
	var misses, accesses uint64
	for _, name := range names {
		tr, err := s.traceByName(name)
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(tr, core.Policy{Kind: core.PolicyUnits, Units: 8}, 1, sim.Options{Capacity: capacity, Verify: s.cfg.Verify})
		if err != nil {
			return nil, err
		}
		misses += r.Stats.Misses
		accesses += r.Stats.Accesses
	}
	if accesses > 0 {
		res.SoloBlendMissRate = float64(misses) / float64(accesses)
	}
	return res, nil
}

// Table renders the multiprogramming comparison.
func (r *MultiprogResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Multiprogramming: %s sharing one code cache", r.Workload),
		"policy", "miss rate", "overhead/FLUSH")
	for i, p := range r.Policies {
		t.AddRowf(p, fmt.Sprintf("%.4f", r.MissRates[i]), fmt.Sprintf("%.3f", r.RelOverhead[i]))
	}
	return t
}

// SensitivityResult reports how the optimal granularity moves as the
// measured cost coefficients vary.
type SensitivityResult struct {
	// Factors scale the eviction fixed cost (Equation 2's intercept, the
	// term the paper identifies as dominant).
	Factors []float64
	// BestPolicy[i] is the overhead-optimal policy at Factors[i] and
	// pressure 10, link costs included.
	BestPolicy []string
	// FIFORelative[i] is fine-grained FIFO's overhead relative to FLUSH.
	FIFORelative []float64
}

// Sensitivity re-prices the pressure-10 sweep under scaled eviction
// invocation costs. The paper's conclusion — medium granularity — should
// be robust: cheaper invocations favour finer grains, pricier ones
// coarser, but the extremes should stay dominated over a wide band.
func (s *Suite) Sensitivity() (*SensitivityResult, error) {
	sw, err := s.Sweep(10)
	if err != nil {
		return nil, err
	}
	res := &SensitivityResult{Factors: []float64{0.25, 0.5, 1, 2, 4}}
	for _, f := range res.Factors {
		m := s.cfg.Model
		m.EvictBase *= f
		m.UnlinkPerLink *= f
		best, bestVal := "", 0.0
		var flush float64
		var fifoRel float64
		for p, pol := range s.Policies() {
			total := sw.TotalOverhead(p, m, true)
			if p == 0 {
				flush = total
			}
			if best == "" || total < bestVal {
				best, bestVal = pol.String(), total
			}
			if pol.Kind == core.PolicyFine {
				fifoRel = total / flush
			}
		}
		res.BestPolicy = append(res.BestPolicy, best)
		res.FIFORelative = append(res.FIFORelative, fifoRel)
	}
	return res, nil
}

// Table renders the sensitivity analysis.
func (r *SensitivityResult) Table() *report.Table {
	t := report.NewTable("Sensitivity: eviction/unlink cost scaling at pressure 10",
		"cost factor", "best policy", "FIFO/FLUSH")
	for i, f := range r.Factors {
		t.AddRowf(fmt.Sprintf("%.2fx", f), r.BestPolicy[i], fmt.Sprintf("%.3f", r.FIFORelative[i]))
	}
	return t
}

// AblationResult summarizes the design-choice ablations of DESIGN.md §5.
type AblationResult struct {
	// LRUFragEvictionPct: percentage of plain-LRU evictions forced purely
	// by fragmentation (§3.3's argument against LRU).
	LRUFragEvictionPct float64
	// CompactionOverheadPct: compacting-LRU's defragmentation cost as a
	// percentage of its total management overhead ("compaction would
	// require adjusting all the link pointers").
	CompactionOverheadPct float64
	// AdaptiveVsBestStatic: adaptive policy overhead / best static
	// granularity overhead at pressure 10.
	AdaptiveVsBestStatic float64
	// PreemptiveVsFlush: preemptive-flush overhead / plain FLUSH at
	// pressure 6.
	PreemptiveVsFlush float64
	// GenerationalVsFlat: generational miss rate / flat 8-unit miss rate
	// at pressure 6.
	GenerationalVsFlat float64
}

// Ablations runs the design-choice studies on one mid-sized benchmark.
func (s *Suite) Ablations() (*AblationResult, error) {
	tr, err := s.traceByName("vortex")
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	model := s.cfg.Model

	// LRU fragmentation.
	capacity, err := sim.CapacityFor(tr, 6)
	if err != nil {
		return nil, err
	}
	lru, err := core.NewLRU(capacity)
	if err != nil {
		return nil, err
	}
	replay := func(c core.Cache) error {
		for _, id := range tr.Accesses {
			if !c.Access(id) {
				if err := c.Insert(tr.Blocks[id]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := replay(lru); err != nil {
		return nil, err
	}
	if ev := lru.Stats().BlocksEvicted; ev > 0 {
		res.LRUFragEvictionPct = 100 * float64(lru.FragEvictions) / float64(ev)
	}

	// Compaction cost.
	comp, err := core.NewCompactingLRU(capacity)
	if err != nil {
		return nil, err
	}
	if err := replay(comp); err != nil {
		return nil, err
	}
	compactCost := comp.CompactionOverhead(1.0, model.UnlinkPerLink)
	base := model.FromStats(comp.Stats(), true).Total()
	if base+compactCost > 0 {
		res.CompactionOverheadPct = 100 * compactCost / (base + compactCost)
	}

	// Adaptive vs best static at pressure 10.
	var bestStatic float64
	for _, pol := range s.Policies() {
		r, err := sim.Run(tr, pol, 10, sim.Options{Verify: s.cfg.Verify})
		if err != nil {
			return nil, err
		}
		total := r.Overhead(model, true).Total()
		if bestStatic == 0 || total < bestStatic {
			bestStatic = total
		}
	}
	ra, err := sim.Run(tr, core.Policy{Kind: core.PolicyAdaptive}, 10, sim.Options{Verify: s.cfg.Verify})
	if err != nil {
		return nil, err
	}
	res.AdaptiveVsBestStatic = ra.Overhead(model, true).Total() / bestStatic

	// Preemptive flush vs plain flush at pressure 6.
	rf, err := sim.Run(tr, core.Policy{Kind: core.PolicyFlush}, 6, sim.Options{Verify: s.cfg.Verify})
	if err != nil {
		return nil, err
	}
	rp, err := sim.Run(tr, core.Policy{Kind: core.PolicyPreemptive}, 6, sim.Options{Verify: s.cfg.Verify})
	if err != nil {
		return nil, err
	}
	res.PreemptiveVsFlush = rp.Overhead(model, false).Total() / rf.Overhead(model, false).Total()

	// Generational vs flat.
	r8, err := sim.Run(tr, core.Policy{Kind: core.PolicyUnits, Units: 8}, 6, sim.Options{Verify: s.cfg.Verify})
	if err != nil {
		return nil, err
	}
	rg, err := sim.Run(tr, core.Policy{Kind: core.PolicyGenerational, Units: 8}, 6, sim.Options{Verify: s.cfg.Verify})
	if err != nil {
		return nil, err
	}
	res.GenerationalVsFlat = rg.Stats.MissRate() / r8.Stats.MissRate()
	return res, nil
}

// Table renders the ablation summary.
func (r *AblationResult) Table() *report.Table {
	t := report.NewTable("Design-choice ablations (DESIGN.md §5)", "study", "result")
	t.AddRowf("LRU evictions forced by fragmentation", fmt.Sprintf("%.1f%%", r.LRUFragEvictionPct))
	t.AddRowf("compaction share of compacting-LRU overhead", fmt.Sprintf("%.1f%%", r.CompactionOverheadPct))
	t.AddRowf("adaptive / best static overhead (p10)", fmt.Sprintf("%.3f", r.AdaptiveVsBestStatic))
	t.AddRowf("preemptive flush / FLUSH overhead (p6)", fmt.Sprintf("%.3f", r.PreemptiveVsFlush))
	t.AddRowf("generational / flat 8-unit miss rate (p6)", fmt.Sprintf("%.3f", r.GenerationalVsFlat))
	return t
}
