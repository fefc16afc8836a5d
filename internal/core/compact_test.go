package core

import (
	"reflect"
	"sort"
	"testing"
)

func TestCompactingLRUBasics(t *testing.T) {
	c, err := NewCompactingLRU(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompactingLRU(0); err == nil {
		t.Error("zero capacity should fail")
	}
	if c.Name() != "compacting-LRU" {
		t.Fatalf("name = %q", c.Name())
	}
	mustInsert(t, c, sb(1, 40), sb(2, 40))
	if !c.Access(1) {
		t.Fatal("hit expected")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionInsteadOfFragEviction(t *testing.T) {
	// Build the fragmentation scenario from the plain-LRU test: alternate
	// recency so evicting the LRU block leaves scattered holes, then ask
	// for a block that only fits after defragmentation.
	c, _ := NewCompactingLRU(100)
	for i := 1; i <= 10; i++ {
		mustInsert(t, c, sb(SuperblockID(i), 10))
	}
	for i := 1; i <= 9; i += 2 {
		c.Access(SuperblockID(i))
	}
	// Evict one block (block 2, the LRU) by normal means: insert a
	// 10-byte block... the cache is full, so this evicts exactly one.
	mustInsert(t, c, sb(11, 10))
	// Now free space is zero again; evict two more via a 20-byte insert.
	// Plain LRU would evict extra blocks due to fragmentation; the
	// compactor must instead compact once aggregate space suffices.
	mustInsert(t, c, sb(12, 20))
	if c.Compactions == 0 {
		t.Fatalf("expected a compaction, got none (FragEvictions=%d)", c.FragEvictions)
	}
	if c.FragEvictions != 0 {
		t.Fatalf("compaction should eliminate fragmentation evictions, got %d", c.FragEvictions)
	}
	if c.BytesMoved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionRepatchesLinks(t *testing.T) {
	// Layout: A(0..30) B(30..60) C(60..90), 10 bytes tail free, with the
	// link C -> A. Evicting B leaves two non-adjacent holes totalling 40;
	// a 40-byte request then forces compaction, which slides C (a link
	// endpoint) down.
	c, _ := NewCompactingLRU(100)
	mustInsert(t, c, sb(1, 30), sb(2, 30), sb(3, 30, 1)) // 3 -> 1
	c.Access(1)
	c.Access(3) // LRU order: 2 (victim), 1, 3
	mustInsert(t, c, sb(4, 40))
	if c.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", c.Compactions)
	}
	if c.BytesMoved != 30 {
		t.Fatalf("BytesMoved = %d, want 30 (block 3 slid down)", c.BytesMoved)
	}
	if c.LinksRepatched != 1 {
		t.Fatalf("LinksRepatched = %d, want 1 (the 3->1 link)", c.LinksRepatched)
	}
	if c.FragEvictions != 0 {
		t.Fatalf("FragEvictions = %d, want 0", c.FragEvictions)
	}
	for _, id := range []SuperblockID{1, 3, 4} {
		if !c.Contains(id) {
			t.Fatalf("block %d should have survived", id)
		}
	}
	if c.Contains(2) {
		t.Fatal("block 2 should have been evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.CompactionOverhead(1, 296.5) != 30+296.5 {
		t.Fatalf("CompactionOverhead = %g", c.CompactionOverhead(1, 296.5))
	}
}

func TestCompactingLRUUnderChurn(t *testing.T) {
	c, _ := NewCompactingLRU(2000)
	r := newTestRand()
	sizes := map[SuperblockID]int{}
	for step := 0; step < 20000; step++ {
		id := SuperblockID(r.Intn(200))
		size, ok := sizes[id]
		if !ok {
			size = 10 + r.Intn(150)
			sizes[id] = size
		}
		if !c.Access(id) {
			if err := c.Insert(Superblock{ID: id, Size: size, Links: []SuperblockID{SuperblockID(r.Intn(200))}}); err != nil {
				t.Fatal(err)
			}
		}
		if step%5000 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The compactor eliminates fragmentation-forced evictions whenever
	// aggregate space suffices.
	if c.FragEvictions != 0 {
		t.Fatalf("FragEvictions = %d with compaction enabled", c.FragEvictions)
	}
	if c.Compactions == 0 {
		t.Fatal("churny variable-size workload should have compacted")
	}
	// And the paper's objection stands: compaction forces link rewrites.
	if c.LinksRepatched == 0 {
		t.Fatal("compactions should have repatched links")
	}
}

// compactSortSlice is the reference compaction: the comparator sort over
// resident IDs that compact replaced with a packed-key integer sort.
// Resident offsets are distinct, so both must produce the same layout.
func compactSortSlice(c *CompactingLRUCache) {
	var ids []SuperblockID
	for id := c.head; id != lruNil; id = c.nextID[id] {
		ids = append(ids, SuperblockID(id))
	}
	sort.Slice(ids, func(i, j int) bool { return c.where[ids[i]] < c.where[ids[j]] })
	c.movedEpoch++
	at := 0
	var bytesMoved uint64
	for _, id := range ids {
		if c.where[id] != int64(at) {
			c.markMoved(id)
			bytesMoved += uint64(c.sizes[id])
			c.where[id] = int64(at)
		}
		at += int(c.sizes[id])
	}
	c.holes.reset(at, c.capacity-at)
	var repatched uint64
	c.links.forEachPatched(func(from, to SuperblockID) {
		if c.moved(from) || c.moved(to) {
			repatched++
		}
	})
	c.Compactions++
	c.BytesMoved += bytesMoved
	c.LinksRepatched += repatched
}

// TestCompactionMatchesSortSliceReference drives random churn through two
// compacting caches, one compacting with the reference comparator sort:
// the arena layout and every compaction counter must agree after each
// operation, including compactions forced between operations. Steady-state
// compaction must not allocate.
func TestCompactionMatchesSortSliceReference(t *testing.T) {
	if MaxSuperblockID != 1<<compactIDBits-1 {
		t.Fatalf("compaction key ID field is %d bits, MaxSuperblockID is %d", compactIDBits, MaxSuperblockID)
	}
	const capacity = 3000
	got, _ := NewCompactingLRU(capacity)
	ref, _ := NewCompactingLRU(capacity)
	ref.preEvict = func(size int) bool {
		if ref.fits(size) || ref.FreeBytes() < size {
			return false
		}
		compactSortSlice(ref)
		return true
	}
	r := newTestRand()
	const span = 300
	sizes := make([]int, span)
	for i := range sizes {
		sizes[i] = 8 + r.Intn(200)
	}
	for step := 0; step < 30000; step++ {
		id := SuperblockID(r.Intn(span))
		switch {
		case r.Intn(50) == 0:
			got.compact()
			compactSortSlice(ref)
		case !got.Access(id):
			if ref.Access(id) {
				t.Fatalf("step %d: block %d resident only in the reference", step, id)
			}
			b := Superblock{ID: id, Size: sizes[id], Links: []SuperblockID{SuperblockID(r.Intn(span)), SuperblockID(r.Intn(span))}}
			if err := got.Insert(b); err != nil {
				t.Fatal(err)
			}
			if err := ref.Insert(b); err != nil {
				t.Fatal(err)
			}
		default:
			ref.Access(id)
		}
		if !reflect.DeepEqual(got.where, ref.where) {
			t.Fatalf("step %d: arena layouts diverge", step)
		}
		if got.Compactions != ref.Compactions || got.BytesMoved != ref.BytesMoved || got.LinksRepatched != ref.LinksRepatched {
			t.Fatalf("step %d: counters (%d, %d, %d), reference (%d, %d, %d)", step,
				got.Compactions, got.BytesMoved, got.LinksRepatched,
				ref.Compactions, ref.BytesMoved, ref.LinksRepatched)
		}
	}
	if got.Compactions < 1000 || got.LinksRepatched == 0 {
		t.Fatalf("churn too mild: %d compactions, %d links repatched", got.Compactions, got.LinksRepatched)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, got.compact); allocs != 0 {
		t.Errorf("steady-state compaction allocated %.1f times per run, want 0", allocs)
	}
}
