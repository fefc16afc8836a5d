package core

import (
	"strings"
	"testing"

	"dynocache/internal/stats"
)

func newTestRand() *stats.Rand { return stats.NewRand(0xD0C, 7) }

// --- LRU ---

func TestLRUBasics(t *testing.T) {
	c, err := NewLRU(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLRU(0); err == nil {
		t.Error("zero capacity should fail")
	}
	if c.Name() != "LRU" || c.Units() != 0 || c.Capacity() != 100 {
		t.Fatalf("metadata wrong: %s/%d/%d", c.Name(), c.Units(), c.Capacity())
	}
	mustInsert(t, c, sb(1, 40), sb(2, 40))
	if !c.Access(1) || c.Access(3) {
		t.Fatal("hit/miss behaviour wrong")
	}
	if c.Resident() != 2 || c.ResidentBytes() != 80 || c.FreeBytes() != 20 {
		t.Fatalf("occupancy wrong: %d/%d/%d", c.Resident(), c.ResidentBytes(), c.FreeBytes())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c, _ := NewLRU(100)
	mustInsert(t, c, sb(1, 40), sb(2, 40))
	c.Access(1) // block 1 becomes MRU; block 2 is now LRU
	mustInsert(t, c, sb(3, 40))
	if c.Contains(2) {
		t.Error("LRU block 2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("blocks 1 and 3 should be resident")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUFragmentationDetected(t *testing.T) {
	// Capacity 100: insert 10 blocks of 10, touch alternate ones, then
	// request a 20-byte block. Evicting one 10-byte LRU block leaves two
	// non-adjacent holes; aggregate free >= 20 while no hole fits.
	c, _ := NewLRU(100)
	for i := 1; i <= 10; i++ {
		mustInsert(t, c, sb(SuperblockID(i), 10))
	}
	// Make odd blocks recently used so LRU order alternates.
	for i := 1; i <= 9; i += 2 {
		c.Access(SuperblockID(i))
	}
	mustInsert(t, c, sb(11, 20))
	if c.FragEvictions == 0 {
		t.Fatal("expected fragmentation-forced evictions")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUHoleCoalescing(t *testing.T) {
	c, _ := NewLRU(100)
	mustInsert(t, c, sb(1, 30), sb(2, 30), sb(3, 40)) // full
	c.Access(3)
	c.Access(1) // LRU order now: 2, 3, 1
	mustInsert(t, c, sb(4, 60))
	// Evicting 2 then 3 coalesces [30,100) into one hole for block 4.
	if !c.Contains(1) || !c.Contains(4) {
		t.Error("blocks 1 and 4 should be resident")
	}
	if c.Contains(2) || c.Contains(3) {
		t.Error("blocks 2 and 3 should be evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUFlushAndCensus(t *testing.T) {
	c, _ := NewLRU(100)
	c.Flush() // empty: no-op
	if c.Stats().FullFlushes != 0 {
		t.Error("empty flush should not count")
	}
	mustInsert(t, c, sb(1, 10, 1), sb(2, 10, 1))
	intra, inter := c.LinkCensus()
	if intra != 1 || inter != 1 {
		t.Fatalf("census = %d/%d, want 1 intra (self) 1 inter", intra, inter)
	}
	if c.BackPtrTableBytes() != 32 {
		t.Fatalf("BackPtrTableBytes = %d, want 32", c.BackPtrTableBytes())
	}
	c.Flush()
	if c.Resident() != 0 || c.Stats().FullFlushes != 1 {
		t.Fatal("flush failed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUAddLinkValidation(t *testing.T) {
	c, _ := NewLRU(100)
	if err := c.AddLink(1, 2); err == nil {
		t.Error("AddLink from absent block should fail")
	}
	mustInsert(t, c, sb(1, 10))
	if err := c.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestLRUInvariantsUnderChurn(t *testing.T) {
	c, _ := NewLRU(500)
	r := newTestRand()
	sizes := map[SuperblockID]int{}
	for step := 0; step < 10000; step++ {
		id := SuperblockID(r.Intn(120))
		size, ok := sizes[id]
		if !ok {
			size = 5 + r.Intn(80)
			sizes[id] = size
		}
		if !c.Access(id) {
			if err := c.Insert(Superblock{ID: id, Size: size, Links: []SuperblockID{SuperblockID(r.Intn(120))}}); err != nil {
				t.Fatal(err)
			}
		}
		if step%2500 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.InsertedBlocks-s.BlocksEvicted != uint64(c.Resident()) {
		t.Fatalf("block conservation violated: %+v resident=%d", *s, c.Resident())
	}
}

// --- Adaptive ---

func TestAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(AdaptiveConfig{Capacity: 0}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewAdaptive(AdaptiveConfig{Capacity: 100, MinUnits: 4, MaxUnits: 2}); err == nil {
		t.Error("inverted bounds should fail")
	}
	if _, err := NewAdaptive(AdaptiveConfig{Capacity: 100, InitialUnits: 512}); err == nil {
		t.Error("initial units out of bounds should fail")
	}
}

func TestAdaptiveHillClimbs(t *testing.T) {
	// A cyclic scan over far more blocks than fit keeps the controller
	// exploring: it must adjust repeatedly, stay within its bounds, and
	// keep the cache structurally sound.
	cfg := AdaptiveConfig{Capacity: 2000, InitialUnits: 2, MaxUnits: 64, Window: 32}
	c, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30000; step++ {
		id := SuperblockID(step % 400)
		if !c.Access(id) {
			if err := c.Insert(sb(id, 20)); err != nil {
				t.Fatal(err)
			}
		}
		if u := c.CurrentUnits(); u < cfg.MinUnits || u > cfg.MaxUnits {
			t.Fatalf("units %d escaped [%d, %d]", u, cfg.MinUnits, cfg.MaxUnits)
		}
	}
	if c.Adjustments == 0 {
		t.Fatal("controller never adjusted under thrash")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveTracksOptimumDirection(t *testing.T) {
	// Under a stable, fitting working set with occasional cold inserts,
	// coarse flushes are expensive; the climber should spend most of its
	// time above its floor granularity.
	c, err := NewAdaptive(AdaptiveConfig{Capacity: 10000, InitialUnits: 2, MaxUnits: 128, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRand()
	var unitSum, samples int
	for step := 0; step < 60000; step++ {
		var id SuperblockID
		if r.Bernoulli(0.1) {
			id = SuperblockID(1000 + r.Intn(5000)) // cold excursion
		} else {
			id = SuperblockID(r.Intn(200)) // resident working set
		}
		if !c.Access(id) {
			if err := c.Insert(sb(id, 30)); err != nil {
				t.Fatal(err)
			}
		}
		if step%100 == 0 {
			unitSum += c.CurrentUnits()
			samples++
		}
	}
	mean := float64(unitSum) / float64(samples)
	if mean <= 2.5 {
		t.Fatalf("climber stuck at the coarse floor (mean units %.1f)", mean)
	}
}

func TestAdaptiveName(t *testing.T) {
	c, _ := NewAdaptive(AdaptiveConfig{Capacity: 100})
	if c.Name() != "adaptive" {
		t.Fatalf("name = %q", c.Name())
	}
}

// --- Preemptive flush ---

func TestPreemptiveFlushTriggersOnPhaseChange(t *testing.T) {
	c, err := NewPreemptiveFlush(10000, 64, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id SuperblockID) {
		if !c.Access(id) {
			if err := c.Insert(sb(id, 50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Phase 1: a small hot set, accessed repeatedly (low miss rate).
	for i := 0; i < 2000; i++ {
		insert(SuperblockID(i % 40))
	}
	if c.PreemptiveFlushes != 0 {
		t.Fatal("no preemptive flush expected during the stable phase")
	}
	// Phase 2: brand-new blocks every access (miss rate ~1).
	for i := 0; i < 500; i++ {
		insert(SuperblockID(10000 + i))
	}
	if c.PreemptiveFlushes == 0 {
		t.Fatal("phase change should have triggered a preemptive flush")
	}
	if !strings.Contains(c.String(), "preemptive-flush") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestPreemptiveFlushDefaults(t *testing.T) {
	c, err := NewPreemptiveFlush(100, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.window != 512 || c.threshold != 0.5 || c.minFill != 0.5 {
		t.Fatalf("defaults wrong: %d/%g/%g", c.window, c.threshold, c.minFill)
	}
}

// --- Generational ---

func TestGenerationalValidation(t *testing.T) {
	if _, err := NewGenerational(0, 0.25, 8, 2); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewGenerational(100, 1.5, 8, 2); err == nil {
		t.Error("bad nursery fraction should fail")
	}
	if _, err := NewGenerational(100, 0.25, 8, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestGenerationalPromotion(t *testing.T) {
	c, err := NewGenerational(1000, 0.25, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, c, sb(1, 50))
	if c.Tenured().Contains(1) {
		t.Fatal("new blocks must start in the nursery")
	}
	c.Access(1)
	c.Access(1) // second nursery hit: promote
	if !c.Tenured().Contains(1) {
		t.Fatal("block 1 should be tenured after reaching the threshold")
	}
	if c.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Promotions)
	}
	// Still one logical block even though two copies exist.
	if c.Resident() != 1 {
		t.Fatalf("Resident = %d, want 1", c.Resident())
	}
	if !c.Access(1) {
		t.Fatal("tenured block should hit")
	}
}

func TestGenerationalCheckInvariants(t *testing.T) {
	c, err := NewGenerational(1000, 0.25, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		id := SuperblockID(i % 40)
		if !c.Access(id) {
			mustInsert(t, c, sb(id, 20+int(id)))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	c.Flush()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A nursery-resident block with scrubbed metadata must be flagged.
	for i := range c.blockMeta {
		c.blockMeta[i] = Superblock{}
	}
	if c.Nursery().Resident() > 0 {
		t.Fatal("expected an empty nursery after Flush")
	}
	mustInsert(t, c, sb(1, 30))
	c.blockMeta[1] = Superblock{}
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("missing promotion metadata should fail the invariant check")
	}
}

func TestGenerationalJumboBypassesNursery(t *testing.T) {
	c, _ := NewGenerational(1000, 0.1, 2, 2) // nursery 100 bytes
	mustInsert(t, c, sb(1, 500))
	if !c.Tenured().Contains(1) || c.Nursery().Contains(1) {
		t.Fatal("jumbo block should go straight to tenured")
	}
}

func TestGenerationalStatsAggregation(t *testing.T) {
	c, _ := NewGenerational(400, 0.25, 2, 2)
	for i := 0; i < 200; i++ {
		id := SuperblockID(i % 50)
		if !c.Access(id) {
			mustInsert(t, c, sb(id, 20))
		}
	}
	s := c.Stats()
	if s.Accesses != 200 || s.Hits+s.Misses != s.Accesses {
		t.Fatalf("access stats inconsistent: %+v", *s)
	}
	ns, ts := c.Nursery().Stats(), c.Tenured().Stats()
	if s.EvictionInvocations != ns.EvictionInvocations+ts.EvictionInvocations {
		t.Fatal("eviction aggregation wrong")
	}
	if s.BlocksEvicted != ns.BlocksEvicted+ts.BlocksEvicted {
		t.Fatal("blocks-evicted aggregation wrong")
	}
}

func TestGenerationalDuplicateInsert(t *testing.T) {
	c, _ := NewGenerational(1000, 0.25, 2, 2)
	mustInsert(t, c, sb(1, 50))
	if err := c.Insert(sb(1, 50)); err == nil {
		t.Error("duplicate insert should fail")
	}
}

func TestGenerationalAddLinkRouting(t *testing.T) {
	c, _ := NewGenerational(1000, 0.25, 2, 2)
	if err := c.AddLink(1, 2); err == nil {
		t.Error("AddLink from absent block should fail")
	}
	mustInsert(t, c, sb(1, 50))
	if err := c.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	c.Access(1)
	c.Access(1) // promoted
	if err := c.AddLink(1, 3); err != nil {
		t.Fatalf("AddLink on tenured block: %v", err)
	}
	if c.BackPtrTableBytes() < 0 {
		t.Fatal("nonsense back-pointer bytes")
	}
	c.Flush()
	if c.Resident() != 0 {
		t.Fatal("flush should empty both generations")
	}
}

// --- Policy specs ---

func TestPolicyNewAndString(t *testing.T) {
	cases := []struct {
		p    Policy
		name string
	}{
		{Policy{Kind: PolicyFlush}, "FLUSH"},
		{Policy{Kind: PolicyUnits, Units: 8}, "8-unit"},
		{Policy{Kind: PolicyFine}, "FIFO"},
		{Policy{Kind: PolicyLRU}, "LRU"},
		{Policy{Kind: PolicyAdaptive}, "adaptive"},
		{Policy{Kind: PolicyPreemptive}, "preemptive"},
		{Policy{Kind: PolicyGenerational, Units: 8}, "generational/8"},
	}
	for _, tc := range cases {
		if tc.p.String() != tc.name {
			t.Errorf("String() = %q, want %q", tc.p.String(), tc.name)
		}
		c, err := tc.p.New(10000)
		if err != nil {
			t.Errorf("%s: New failed: %v", tc.name, err)
			continue
		}
		if c.Capacity() <= 0 {
			t.Errorf("%s: bad capacity", tc.name)
		}
	}
	if _, err := (Policy{Kind: PolicyKind(99)}).New(100); err == nil {
		t.Error("unknown policy should fail")
	}
	if got := (Policy{Kind: PolicyKind(99)}).String(); !strings.Contains(got, "policy(") {
		t.Errorf("unknown policy String() = %q", got)
	}
	if got := (Policy{Kind: PolicyGenerational}).New; got == nil {
		t.Error("unreachable")
	}
}

func TestGranularitySweep(t *testing.T) {
	ps := GranularitySweep(64)
	want := []string{"FLUSH", "2-unit", "4-unit", "8-unit", "16-unit", "32-unit", "64-unit", "FIFO"}
	if len(ps) != len(want) {
		t.Fatalf("sweep length = %d, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("sweep[%d] = %s, want %s", i, p, want[i])
		}
	}
}

// Cross-policy property: same access stream, miss counts ordered by
// granularity is NOT guaranteed pointwise, but conservation laws are.
func TestAllPoliciesConservationLaws(t *testing.T) {
	policies := []Policy{
		{Kind: PolicyFlush},
		{Kind: PolicyUnits, Units: 4},
		{Kind: PolicyUnits, Units: 16},
		{Kind: PolicyFine},
		{Kind: PolicyLRU},
		{Kind: PolicyAdaptive},
		{Kind: PolicyPreemptive},
	}
	r := newTestRand()
	type ref struct {
		id   SuperblockID
		size int
	}
	var blocks []ref
	for i := 0; i < 150; i++ {
		blocks = append(blocks, ref{SuperblockID(i), 10 + r.Intn(90)})
	}
	var accesses []int
	for i := 0; i < 8000; i++ {
		accesses = append(accesses, r.Zipf(len(blocks), 0.9))
	}
	for _, p := range policies {
		c, err := p.New(2500)
		if err != nil {
			t.Fatal(err)
		}
		for _, ai := range accesses {
			b := blocks[ai]
			if !c.Access(b.id) {
				if err := c.Insert(Superblock{ID: b.id, Size: b.size}); err != nil {
					t.Fatalf("%s: %v", p, err)
				}
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Errorf("%s: access conservation violated", p)
		}
		if s.InsertedBlocks-s.BlocksEvicted != uint64(c.Resident()) {
			t.Errorf("%s: block conservation violated: ins=%d ev=%d res=%d",
				p, s.InsertedBlocks, s.BlocksEvicted, c.Resident())
		}
		if c.ResidentBytes() > c.Capacity() {
			t.Errorf("%s: over capacity", p)
		}
	}
}
