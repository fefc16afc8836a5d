package experiments

import (
	"strings"
	"testing"
)

func TestMultiprogExperiment(t *testing.T) {
	s := getSuite(t)
	r, err := s.Multiprog("gzip", "vpr", "crafty", "twolf")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != len(r.MissRates) || len(r.Policies) != len(r.RelOverhead) {
		t.Fatalf("shape mismatch: %+v", r)
	}
	if r.RelOverhead[0] != 1.0 {
		t.Fatalf("FLUSH should normalize to 1, got %g", r.RelOverhead[0])
	}
	// Sharing a cache must cost more misses than running solo at the same
	// per-program pressure (the intro's motivation).
	if r.SharedMissRate8 <= r.SoloBlendMissRate {
		t.Fatalf("shared %g should exceed solo blend %g", r.SharedMissRate8, r.SoloBlendMissRate)
	}
	// Miss rates still decline with granularity on the shared cache.
	if r.MissRates[0] <= r.MissRates[len(r.MissRates)-1] {
		t.Fatalf("FLUSH should miss more than FIFO on the shared cache: %v", r.MissRates)
	}
	if !strings.Contains(r.Table().String(), "Multiprogramming") {
		t.Fatal("table render broken")
	}
}

func TestMultiprogDefaultNames(t *testing.T) {
	s := getSuite(t)
	if _, err := s.Multiprog(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Multiprog("nope"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestSensitivityRobustness(t *testing.T) {
	s := getSuite(t)
	r, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BestPolicy) != len(r.Factors) {
		t.Fatalf("shape mismatch: %+v", r)
	}
	// The conclusion holds around the measured coefficients: FLUSH wins
	// only if invocation costs are inflated well beyond the measurements,
	// and plain FIFO only if they are deflated well below them.
	for i, best := range r.BestPolicy {
		if best == "FLUSH" && r.Factors[i] <= 1 {
			t.Errorf("factor %gx: FLUSH should not be optimal at measured costs", r.Factors[i])
		}
		if best == "FIFO" && r.Factors[i] >= 1 {
			t.Errorf("factor %gx: FIFO should not win at full/raised costs", r.Factors[i])
		}
	}
	// FIFO's relative position must worsen monotonically as invocation
	// costs grow.
	for i := 1; i < len(r.FIFORelative); i++ {
		if r.FIFORelative[i] < r.FIFORelative[i-1] {
			t.Fatalf("FIFO/FLUSH should grow with cost factor: %v", r.FIFORelative)
		}
	}
	if !strings.Contains(r.Table().String(), "Sensitivity") {
		t.Fatal("table render broken")
	}
}

func TestAblationsSummary(t *testing.T) {
	s := getSuite(t)
	r, err := s.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	// §3.3: fragmentation is a real problem for LRU with variable-size
	// entries.
	if r.LRUFragEvictionPct <= 5 {
		t.Errorf("LRU fragmentation evictions = %.1f%%, expected a visible effect", r.LRUFragEvictionPct)
	}
	// Compaction carries a real cost (the paper's one-line dismissal).
	if r.CompactionOverheadPct <= 0 {
		t.Errorf("compaction overhead %.2f%% should be positive", r.CompactionOverheadPct)
	}
	// The adaptive controller must stay in the neighbourhood of the best
	// static configuration.
	if r.AdaptiveVsBestStatic < 1.0 || r.AdaptiveVsBestStatic > 1.6 {
		t.Errorf("adaptive/best = %.3f, expected within [1.0, 1.6]", r.AdaptiveVsBestStatic)
	}
	if r.PreemptiveVsFlush <= 0 || r.GenerationalVsFlat <= 0 {
		t.Errorf("degenerate ratios: %+v", r)
	}
	if !strings.Contains(r.Table().String(), "ablations") {
		t.Fatal("table render broken")
	}
}

func TestAppendixPerBenchmark(t *testing.T) {
	s := getSuite(t)
	r, err := s.Appendix(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 20 || len(r.FIFOOverFlush) != 20 {
		t.Fatalf("shape: %+v", r)
	}
	// Under pressure, at least a few benchmarks push FIFO past FLUSH (the
	// Figure 11 crossover, per benchmark).
	if r.CrossedCount == 0 {
		t.Fatal("no benchmark crossed at pressure 10")
	}
	// 8-unit should practically never be the worse-than-FLUSH policy.
	worse := 0
	for _, v := range r.Unit8OverFlush {
		if v > 1.02 {
			worse++
		}
	}
	if worse > len(r.Unit8OverFlush)/3 {
		t.Fatalf("8-unit worse than FLUSH on %d/20 benchmarks", worse)
	}
	if r.SPECMissRate <= 0 || r.WindowsMissRate <= 0 {
		t.Fatalf("per-suite rates missing: %+v", r)
	}
	if !strings.Contains(r.Table().String(), "Appendix") {
		t.Fatal("table render broken")
	}
}
