package core

import (
	"strings"
	"testing"
)

// TestParsePolicyRoundTrip pins ParsePolicy against Policy.String for
// the whole policy zoo, plus the documented aliases and rejections.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{
		{Kind: PolicyFlush},
		{Kind: PolicyUnits, Units: 8},
		{Kind: PolicyFine},
		{Kind: PolicyLRU},
		{Kind: PolicyCompactingLRU},
		{Kind: PolicyAdaptive},
		{Kind: PolicyPreemptive},
		{Kind: PolicyGenerational, Units: 4},
	} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", p.String(), got, p)
		}
	}
	aliases := map[string]Policy{
		"fine":             {Kind: PolicyFine},
		"preemptive-flush": {Kind: PolicyPreemptive},
		"1-unit":           {Kind: PolicyFlush},
		"generational":     {Kind: PolicyGenerational, Units: 8},
		"  LRU  ":          {Kind: PolicyLRU},
	}
	for in, want := range aliases {
		got, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "clock", "0-unit", "x-unit", "generational/0", "generational/x"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) should fail", bad)
		}
	}
	if _, err := (Policy{Kind: PolicyKind(99)}).New(1024); err == nil {
		t.Error("New with unknown policy kind should fail")
	}
	if s := (Policy{Kind: PolicyKind(99)}).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown policy String = %q", s)
	}
}

// TestEngineAccessors covers the kernel-facing engine surface: the
// EngineBacked handle, the bound policy, the hoisted observer flags, and
// the DBT's eviction hook.
func TestEngineAccessors(t *testing.T) {
	c, err := NewLRU(256)
	if err != nil {
		t.Fatal(err)
	}
	eng := c.ReplayEngine()
	if eng.BoundPolicy().(*LRUCache) != c {
		t.Error("BoundPolicy does not return the constructing cache")
	}
	if hits, misses := eng.Observers(); !hits || misses {
		t.Errorf("LRU Observers = (%v, %v), want (true, false)", hits, misses)
	}
	c.ObserveMiss(0) // declared unobserved; must be a safe no-op
	c.Reserve(63)
	if got := c.holes.largest(); got != 256 {
		t.Errorf("largest hole = %d, want the whole arena", got)
	}
	var hooked []SuperblockID
	eng.SetEvictHook(func(ids []SuperblockID) { hooked = append(hooked, ids...) })
	for id := SuperblockID(0); id < 5; id++ {
		if err := c.Insert(Superblock{ID: id, Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if len(hooked) == 0 {
		t.Error("eviction hook never fired under overflow")
	}
	if _, ok := eng.Where(SuperblockID(1000)); ok {
		t.Error("Where reported an offset for a non-resident block")
	}

	f, err := NewFine(256)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := f.ReplayEngine().Observers(); hits || misses {
		t.Errorf("FIFO Observers = (%v, %v), want (false, false)", hits, misses)
	}
	var pol VictimPolicy = f
	pol.ObserveHit(0) // declared unobserved; must be safe no-ops
	pol.ObserveMiss(0)
}

// TestGenerationalReplaySurface covers the composite's kernel-facing
// API: geometry accessors, Reserve, frozen links, lazy patched counting,
// batched counters, and the census/byte views.
func TestGenerationalReplaySurface(t *testing.T) {
	g, err := NewGenerational(4096, 0.25, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() == "" {
		t.Error("empty Name")
	}
	if g.Units() < 1 {
		t.Errorf("Units = %d", g.Units())
	}
	if g.PromotionThreshold() != 2 {
		t.Errorf("PromotionThreshold = %d, want 2", g.PromotionThreshold())
	}
	g.Reserve(7)
	blocks := []Superblock{
		{ID: 0, Size: 64, Links: []SuperblockID{1}},
		{ID: 1, Size: 64},
	}
	g.FreezeLinks(blocks, false)
	g.SetLazyPatchedCount(true)
	for _, sb := range blocks {
		if err := g.Insert(sb); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.PatchedLinks(); got != 1 {
		t.Errorf("PatchedLinks = %d, want 1", got)
	}
	if got := g.ResidentBytes(); got != 128 {
		t.Errorf("ResidentBytes = %d, want 128", got)
	}
	intra, inter := g.LinkCensus()
	if intra+inter != 1 {
		t.Errorf("LinkCensus = (%d, %d), want one live link", intra, inter)
	}
	before := *g.Stats()
	g.BatchAccessStats(10, 7)
	st := g.Stats()
	if st.Accesses != before.Accesses+10 || st.Hits != before.Hits+7 || st.Misses != before.Misses+3 {
		t.Errorf("BatchAccessStats folded to %+v from %+v", st, before)
	}
	// Two nursery hits promote (threshold 2); HitFast is the kernel path.
	if !g.HitFast(0) || !g.HitFast(0) {
		t.Fatal("resident block missed")
	}
	if !g.Tenured().Contains(0) {
		t.Error("block 0 not promoted after reaching the hit threshold")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
