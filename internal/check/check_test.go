package check

import (
	"strings"
	"testing"

	"dynocache/internal/core"
	"dynocache/internal/stats"
	"dynocache/internal/trace"
)

// randomTrace synthesizes a small linked workload with Zipf-skewed reuse,
// independent of the calibrated workload package, so these tests do not
// inherit its assumptions.
func randomTrace(t *testing.T, name string, blocks, accesses int, seed uint64) *trace.Trace {
	t.Helper()
	r := stats.NewRand(seed, 7)
	tr := trace.New(name)
	for i := 0; i < blocks; i++ {
		links := make([]core.SuperblockID, 0, 3)
		for k := r.Intn(4); k > 0; k-- {
			links = append(links, core.SuperblockID(r.Intn(blocks)))
		}
		sb := core.Superblock{
			ID:    core.SuperblockID(i),
			Size:  16 + r.Intn(200),
			Links: links,
		}
		if err := tr.Define(sb); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < accesses; i++ {
		if err := tr.Touch(core.SuperblockID(r.Zipf(blocks, 0.8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// oraclePolicies is every policy with a reference model: the FIFO family,
// LRU, and the generational composite.
func oraclePolicies() []core.Policy {
	return []core.Policy{
		{Kind: core.PolicyFlush},
		{Kind: core.PolicyUnits, Units: 2},
		{Kind: core.PolicyUnits, Units: 8},
		{Kind: core.PolicyUnits, Units: 64},
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyGenerational, Units: 8},
	}
}

func TestCheckedAgreesWithEngineOnRandomTraces(t *testing.T) {
	tr := randomTrace(t, "random", 300, 40000, 0xBEEF)
	capacity := tr.TotalBytes() / 6
	for _, p := range oraclePolicies() {
		if err := Diff(tr, p, capacity); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}

func TestDiffAllGranularities(t *testing.T) {
	tr := randomTrace(t, "sweep", 200, 15000, 0xF00D)
	if err := DiffAll(tr, 64, tr.TotalBytes()/4); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedIsTransparent(t *testing.T) {
	// A verified run must produce exactly the stats of an unchecked run.
	tr := randomTrace(t, "transparent", 150, 20000, 0xABCD)
	capacity := tr.TotalBytes() / 5
	for _, p := range oraclePolicies() {
		_, plain, err := replayStats(tr, p, capacity, 0)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := p.New(capacity)
		if err != nil {
			t.Fatal(err)
		}
		chk := Wrap(cache, p)
		for i, id := range tr.Accesses {
			if !chk.Access(id) {
				if err := chk.Insert(tr.Blocks[id]); err != nil {
					t.Fatalf("policy %s access %d: %v", p, i, err)
				}
			}
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("policy %s: unexpected violation: %v", p, err)
		}
		if got := *chk.Stats(); got != plain {
			field, g, w := firstStatsDiff(got, plain)
			t.Fatalf("policy %s: verified run changed %s (%s vs %s)", p, field, g, w)
		}
	}
}

func TestCheckedWithoutOracleStillRunsInvariantWall(t *testing.T) {
	for _, p := range []core.Policy{
		{Kind: core.PolicyCompactingLRU},
		{Kind: core.PolicyAdaptive},
		{Kind: core.PolicyPreemptive},
	} {
		cache, err := p.New(4000)
		if err != nil {
			t.Fatal(err)
		}
		chk := Wrap(cache, p)
		if chk.HasOracle() {
			t.Fatalf("policy %s should not have an oracle", p)
		}
		tr := randomTrace(t, "wall", 120, 8000, 0x1234+uint64(p.Kind))
		for _, id := range tr.Accesses {
			if !chk.Access(id) {
				if err := chk.Insert(tr.Blocks[id]); err != nil {
					t.Fatalf("policy %s: %v", p, err)
				}
			}
		}
		chk.Flush()
		if err := chk.Err(); err != nil {
			t.Fatalf("policy %s: invariant wall tripped on a healthy cache: %v", p, err)
		}
	}
}

// TestCheckedCatchesWrongGranularity wires a fine-grained engine to a
// FLUSH oracle: the first capacity eviction must diverge, proving the
// differ actually detects semantic drift rather than vacuously passing.
func TestCheckedCatchesWrongGranularity(t *testing.T) {
	const capacity = 1000
	inner, err := core.NewFine(capacity)
	if err != nil {
		t.Fatal(err)
	}
	chk := Wrap(inner, core.Policy{Kind: core.PolicyFlush})
	if !chk.HasOracle() {
		t.Fatal("expected a FLUSH oracle")
	}
	r := stats.NewRand(0x5EED, 9)
	var tripped bool
	for i := 0; i < 5000; i++ {
		id := core.SuperblockID(r.Intn(64))
		if !chk.Access(id) {
			_ = chk.Insert(core.Superblock{ID: id, Size: 50 + int(id)})
		}
		if chk.Err() != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("fine-grained engine never diverged from the FLUSH oracle")
	}
	v, ok := chk.Err().(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %T", chk.Err())
	}
	if v.Step == 0 || v.Op == "" || v.Field == "" {
		t.Fatalf("violation missing context: %+v", v)
	}
	if !strings.Contains(v.Error(), "step") {
		t.Fatalf("unhelpful violation message: %v", v)
	}
}

// brokenCapacityCache under-reports its capacity, so the occupancy
// invariant must trip as soon as the (real, larger) arena fills past the
// reported bound.
type brokenCapacityCache struct {
	core.Cache
	reported int
}

func (b *brokenCapacityCache) Capacity() int { return b.reported }

func TestCheckedCatchesOccupancyViolation(t *testing.T) {
	inner, err := core.NewFine(4000)
	if err != nil {
		t.Fatal(err)
	}
	broken := &brokenCapacityCache{Cache: inner, reported: 1000}
	// No oracle on purpose (capacity lies would desync it immediately);
	// PolicyCompactingLRU keys Wrap into invariant-wall-only mode.
	chk := Wrap(broken, core.Policy{Kind: core.PolicyCompactingLRU})
	for i := 0; i < 100 && chk.Err() == nil; i++ {
		id := core.SuperblockID(i)
		if !chk.Access(id) {
			_ = chk.Insert(core.Superblock{ID: id, Size: 100})
		}
	}
	err = chk.Err()
	if err == nil {
		t.Fatal("occupancy violation went undetected")
	}
	if !strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("expected an occupancy violation, got: %v", err)
	}
}

func TestDiffRejectsPoliciesWithoutOracle(t *testing.T) {
	tr := randomTrace(t, "nooracle", 50, 500, 1)
	err := Diff(tr, core.Policy{Kind: core.PolicyAdaptive}, 2000)
	if err == nil || !strings.Contains(err.Error(), "no oracle") {
		t.Fatalf("want a no-oracle error, got %v", err)
	}
}

// TestCheckedCatchesNonLRUVictims wires a fine-grained FIFO engine to the
// LRU oracle: with a reuse-heavy workload, FIFO evicts recently touched
// blocks the oracle keeps, so the differ must trip with full context.
func TestCheckedCatchesNonLRUVictims(t *testing.T) {
	const capacity = 1000
	inner, err := core.NewFine(capacity)
	if err != nil {
		t.Fatal(err)
	}
	chk := Wrap(inner, core.Policy{Kind: core.PolicyLRU})
	if !chk.HasOracle() {
		t.Fatal("expected an LRU oracle")
	}
	r := stats.NewRand(0xCAFE, 9)
	var tripped bool
	for i := 0; i < 5000; i++ {
		id := core.SuperblockID(r.Zipf(64, 0.9))
		if !chk.Access(id) {
			_ = chk.Insert(core.Superblock{ID: id, Size: 50 + int(id)})
		}
		if chk.Err() != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("FIFO engine never diverged from the LRU oracle")
	}
	v, ok := chk.Err().(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %T", chk.Err())
	}
	if v.Step == 0 || v.Op == "" || v.Field == "" {
		t.Fatalf("violation missing context: %+v", v)
	}
	if !strings.Contains(v.Error(), "step") {
		t.Fatalf("unhelpful violation message: %v", v)
	}
}

// lyingThreshold misreports the promotion threshold, so the generational
// oracle promotes later than the engine: the first real promotion must
// desynchronize occupancy (the tenured copy plus the dead nursery copy)
// and trip the differ.
type lyingThreshold struct {
	*core.GenerationalCache
}

func (l *lyingThreshold) PromotionThreshold() int {
	return l.GenerationalCache.PromotionThreshold() + 5
}

func TestCheckedCatchesWrongPromotionThreshold(t *testing.T) {
	inner, err := core.NewGenerational(4000, 0.25, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	chk := Wrap(&lyingThreshold{inner}, core.Policy{Kind: core.PolicyGenerational, Units: 8})
	if !chk.HasOracle() {
		t.Fatal("expected a generational oracle")
	}
	r := stats.NewRand(0xD00D, 9)
	var tripped bool
	for i := 0; i < 20000; i++ {
		id := core.SuperblockID(r.Zipf(80, 0.9))
		if !chk.Access(id) {
			_ = chk.Insert(core.Superblock{ID: id, Size: 40 + int(id)})
		}
		if chk.Err() != nil {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("mismatched promotion thresholds never diverged")
	}
	v, ok := chk.Err().(*Violation)
	if !ok {
		t.Fatalf("want *Violation, got %T", chk.Err())
	}
	if v.Step == 0 || v.Op == "" || v.Field == "" {
		t.Fatalf("violation missing context: %+v", v)
	}
}
