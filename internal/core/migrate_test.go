package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"dynocache/internal/stats"
)

// migEvent is one step of a deterministic synthetic workload.
type migEvent struct {
	id    SuperblockID
	size  int
	links []SuperblockID
}

func migStream(seed uint64, n, idRange int) []migEvent {
	r := stats.NewRand(seed, 5)
	sizes := make(map[SuperblockID]int)
	evs := make([]migEvent, 0, n)
	for i := 0; i < n; i++ {
		id := SuperblockID(r.Intn(idRange))
		size, ok := sizes[id]
		if !ok {
			size = 10 + r.Intn(120)
			sizes[id] = size
		}
		var links []SuperblockID
		for j := 0; j < r.Geometric(1.7) && j < 6; j++ {
			links = append(links, SuperblockID(r.Intn(idRange)))
		}
		evs = append(evs, migEvent{id: id, size: size, links: links})
	}
	return evs
}

func driveMig(t *testing.T, c Cache, evs []migEvent) {
	t.Helper()
	for _, ev := range evs {
		if !c.Access(ev.id) {
			if err := c.Insert(Superblock{ID: ev.id, Size: ev.size, Links: ev.links}); err != nil {
				t.Fatalf("%s insert %d: %v", c.Name(), ev.id, err)
			}
		}
	}
}

// sumStats adds two Stats field-wise (all fields are uint64 counters).
func sumStats(a, b Stats) Stats {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	out := reflect.New(reflect.TypeOf(a)).Elem()
	for i := 0; i < va.NumField(); i++ {
		out.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return out.Interface().(Stats)
}

// TestFIFOMigrationBitEquality drives the same stream through a solo
// cache and through a chain of caches with the whole span migrated at
// each quarter boundary. Empty destinations adopt the exact geometry, so
// every counter, the residency set, and the queue itself must come out
// bit-identical to the uninterrupted run.
func TestFIFOMigrationBitEquality(t *testing.T) {
	mk := map[string]func() *FIFOCache{
		"flush": func() *FIFOCache { c, _ := NewFlush(1000); return c },
		"units": func() *FIFOCache { c, _ := NewUnits(1000, 8); return c },
		"fine":  func() *FIFOCache { c, _ := NewFine(1000); return c },
	}
	const span = SuperblockID(300)
	evs := migStream(42, 8000, int(span))
	for name, newCache := range mk {
		t.Run(name, func(t *testing.T) {
			solo := newCache()
			driveMig(t, solo, evs)

			var agg Stats
			cur := newCache()
			q := len(evs) / 4
			for hop := 0; hop < 4; hop++ {
				lo, hi := hop*q, (hop+1)*q
				if hop == 3 {
					hi = len(evs)
				}
				driveMig(t, cur, evs[lo:hi])
				if hop == 3 {
					break
				}
				st, err := cur.ExtractSpan(0, span)
				if err != nil {
					t.Fatalf("hop %d extract: %v", hop, err)
				}
				if cur.Resident() != 0 || cur.ResidentBytes() != 0 {
					t.Fatalf("hop %d: source not empty after whole-span extraction", hop)
				}
				if err := cur.CheckInvariants(); err != nil {
					t.Fatalf("hop %d source invariants: %v", hop, err)
				}
				agg = sumStats(agg, *cur.Stats())
				next := newCache()
				if err := next.InstallSpan(0, st); err != nil {
					t.Fatalf("hop %d install: %v", hop, err)
				}
				if err := next.CheckInvariants(); err != nil {
					t.Fatalf("hop %d dest invariants: %v", hop, err)
				}
				cur = next
			}
			agg = sumStats(agg, *cur.Stats())
			if agg != *solo.Stats() {
				t.Fatalf("stats diverged:\n migrated: %+v\n solo:     %+v", agg, *solo.Stats())
			}
			if cur.head != solo.head || cur.tail != solo.tail {
				t.Fatalf("window diverged: [%d,%d) vs solo [%d,%d)", cur.tail, cur.head, solo.tail, solo.head)
			}
			got := cur.queue[cur.qfront:]
			want := solo.queue[solo.qfront:]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("queue diverged: %d entries vs %d", len(got), len(want))
			}
			if cur.PatchedLinks() != solo.PatchedLinks() {
				t.Fatalf("patched links diverged: %d vs %d", cur.PatchedLinks(), solo.PatchedLinks())
			}
		})
	}
}

// TestLRUMigrationBitEquality is the LRU analogue: exact-layout adoption
// must reproduce the recency chain, the hole index, and every counter of
// the uninterrupted run.
func TestLRUMigrationBitEquality(t *testing.T) {
	const span = SuperblockID(300)
	evs := migStream(7, 8000, int(span))
	solo, _ := NewLRU(1000)
	driveMig(t, solo, evs)

	var agg Stats
	cur, _ := NewLRU(1000)
	q := len(evs) / 4
	for hop := 0; hop < 4; hop++ {
		lo, hi := hop*q, (hop+1)*q
		if hop == 3 {
			hi = len(evs)
		}
		driveMig(t, cur, evs[lo:hi])
		if hop == 3 {
			break
		}
		st, err := cur.ExtractSpan(0, span)
		if err != nil {
			t.Fatalf("hop %d extract: %v", hop, err)
		}
		if cur.Resident() != 0 {
			t.Fatalf("hop %d: source not empty after whole-span extraction", hop)
		}
		if err := cur.CheckInvariants(); err != nil {
			t.Fatalf("hop %d source invariants: %v", hop, err)
		}
		agg = sumStats(agg, *cur.Stats())
		next, _ := NewLRU(1000)
		if err := next.InstallSpan(0, st); err != nil {
			t.Fatalf("hop %d install: %v", hop, err)
		}
		if err := next.CheckInvariants(); err != nil {
			t.Fatalf("hop %d dest invariants: %v", hop, err)
		}
		cur = next
	}
	agg = sumStats(agg, *cur.Stats())
	if agg != *solo.Stats() {
		t.Fatalf("stats diverged:\n migrated: %+v\n solo:     %+v", agg, *solo.Stats())
	}
	chain := func(c *LRUCache) []int32 {
		var ids []int32
		for v := c.tail; v != lruNil; v = c.prevID[v] {
			ids = append(ids, v)
		}
		return ids
	}
	if !reflect.DeepEqual(chain(cur), chain(solo)) {
		t.Fatal("recency chain diverged")
	}
	holes := func(c *LRUCache) [][2]int {
		var hs [][2]int
		c.holes.ascend(func(off, size int) {
			hs = append(hs, [2]int{off, size})
		})
		return hs
	}
	if !reflect.DeepEqual(holes(cur), holes(solo)) {
		t.Fatalf("hole index diverged: %v vs %v", holes(cur), holes(solo))
	}
	if cur.freeBytes != solo.freeBytes {
		t.Fatalf("free bytes diverged: %d vs %d", cur.freeBytes, solo.freeBytes)
	}
}

// TestMigrationInterleavedSpans extracts one of two interleaved tenants.
// The survivor must be untouched, the departing span must land intact at
// a different base, and relative eviction order must survive the
// non-contiguous (append) install path.
func TestMigrationInterleavedSpans(t *testing.T) {
	c, _ := NewFine(100000)
	const (
		baseA = SuperblockID(0)
		baseB = SuperblockID(1000)
		span  = SuperblockID(100)
	)
	for i := SuperblockID(0); i < 50; i++ {
		mustInsert(t, c, sb(baseA+i, 20))
		var links []SuperblockID
		if i > 0 {
			links = append(links, baseB+i-1)
		}
		mustInsert(t, c, Superblock{ID: baseB + i, Size: 30, Links: links})
	}
	wantOrder := make([]SuperblockID, 0, 50)
	for i := c.qfront; i < len(c.queue); i++ {
		if id := c.queue[i].id; id >= baseB {
			wantOrder = append(wantOrder, id-baseB)
		}
	}
	st, err := c.ExtractSpan(baseB, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Blocks) != 50 || st.Bytes != 50*30 {
		t.Fatalf("state = %d blocks / %d bytes", len(st.Blocks), st.Bytes)
	}
	for i, b := range st.Blocks {
		if b.ID != wantOrder[i] {
			t.Fatalf("eviction order not preserved at %d: got %d want %d", i, b.ID, wantOrder[i])
		}
	}
	if st.Contiguous() {
		t.Fatal("interleaved extraction cannot be contiguous")
	}
	for i := SuperblockID(0); i < 50; i++ {
		if !c.Contains(baseA + i) {
			t.Fatalf("survivor block %d lost", baseA+i)
		}
		if c.Contains(baseB + i) {
			t.Fatalf("extracted block %d still resident", baseB+i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("source invariants after extraction: %v", err)
	}

	// Install at a different base into a non-empty destination.
	dst, _ := NewFine(100000)
	mustInsert(t, dst, sb(5000, 40))
	if err := dst.InstallSpan(200, st); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if dst.Stats().InsertedBlocks != 1 {
		t.Fatalf("installation must not count as insertion: %+v", *dst.Stats())
	}
	var gotOrder []SuperblockID
	for i := dst.qfront; i < len(dst.queue); i++ {
		if id := dst.queue[i].id; id >= 200 && id < 200+span {
			gotOrder = append(gotOrder, id-200)
		}
	}
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Fatal("relative eviction order not preserved across append-path install")
	}
	// Intra-span links travelled: 49 chained links, all patched.
	if got := dst.PatchedLinks(); got != 49 {
		t.Fatalf("patched links after install = %d, want 49", got)
	}
}

// TestCrossSpanLinkSevering checks Eq. 4 accounting at the span boundary:
// patched links from survivors into the departing span are unpatched one
// by one (InterUnitLinksRemoved + one UnlinkEvent per departing target),
// the departing side's own cross-span links die free, pending
// declarations sever silently, and the vacated ID range is safe to reuse.
func TestCrossSpanLinkSevering(t *testing.T) {
	c, _ := NewFine(10000)
	// Span A = [0,100), span B = [100,200).
	mustInsert(t, c, Superblock{ID: 10, Size: 20, Links: []SuperblockID{110, 150}}) // 110 patched later, 150 stays pending
	mustInsert(t, c, Superblock{ID: 110, Size: 20})
	mustInsert(t, c, Superblock{ID: 111, Size: 20, Links: []SuperblockID{10, 110}}) // one cross, one intra
	if got := c.PatchedLinks(); got != 3 {
		t.Fatalf("patched before = %d, want 3 (10→110, 111→10, 111→110)", got)
	}
	before := *c.Stats()

	st, err := c.ExtractSpan(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	after := *c.Stats()
	if after.EvictionInvocations != before.EvictionInvocations ||
		after.BlocksEvicted != before.BlocksEvicted ||
		after.BytesEvicted != before.BytesEvicted ||
		after.FullFlushes != before.FullFlushes {
		t.Fatalf("extraction charged eviction counters: %+v", after)
	}
	if after.InterUnitLinksRemoved-before.InterUnitLinksRemoved != 1 {
		t.Fatalf("InterUnitLinksRemoved delta = %d, want 1 (10→110)", after.InterUnitLinksRemoved-before.InterUnitLinksRemoved)
	}
	if after.UnlinkEvents-before.UnlinkEvents != 1 {
		t.Fatalf("UnlinkEvents delta = %d, want 1 (block 110 had one inbound survivor link)", after.UnlinkEvents-before.UnlinkEvents)
	}
	if after.IntraUnitLinksFlushed != before.IntraUnitLinksFlushed {
		t.Fatal("relocation must not flush intra-unit links")
	}
	if got := c.PatchedLinks(); got != 0 {
		t.Fatalf("patched after extraction = %d, want 0", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The state carries only the intra-span edge 111→110, span-relative.
	if len(st.Blocks) != 2 || st.Blocks[0].ID != 10 || st.Blocks[1].ID != 11 {
		t.Fatalf("state blocks = %+v", st.Blocks)
	}
	if len(st.Blocks[0].Links) != 0 || !reflect.DeepEqual(st.Blocks[1].Links, []SuperblockID{10}) {
		t.Fatalf("state links = %v / %v", st.Blocks[0].Links, st.Blocks[1].Links)
	}

	// Reusing the vacated range must not resurrect severed declarations:
	// fresh 110/150 arrive and nothing re-patches 10's old links.
	mustInsert(t, c, Superblock{ID: 110, Size: 10}, Superblock{ID: 150, Size: 10})
	if got := c.PatchedLinks(); got != 0 {
		t.Fatalf("stale declarations re-patched on ID reuse: %d", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The travelled intra-span link patches again at the new home.
	dst, _ := NewFine(10000)
	if err := dst.InstallSpan(300, st); err != nil {
		t.Fatal(err)
	}
	if got := dst.PatchedLinks(); got != 1 {
		t.Fatalf("patched at destination = %d, want 1 (311→310)", got)
	}
	if dst.Stats().InsertedBlocks != 0 || dst.Stats().InsertedBytes != 0 {
		t.Fatal("installation must not count as insertion")
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallEvictsForRoom: a full destination makes room with REAL
// evictions, charged to the destination's stats.
func TestInstallEvictsForRoom(t *testing.T) {
	src, _ := NewFine(100)
	mustInsert(t, src, sb(0, 40), sb(1, 40))
	st, err := src.ExtractSpan(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewFine(100)
	mustInsert(t, dst, sb(500, 50), sb(501, 40))
	if err := dst.InstallSpan(0, st); err != nil {
		t.Fatal(err)
	}
	s := dst.Stats()
	if s.EvictionInvocations == 0 || s.BlocksEvicted == 0 {
		t.Fatalf("room-making must be a real eviction: %+v", *s)
	}
	if !dst.Contains(0) || !dst.Contains(1) {
		t.Fatal("migrated blocks not resident")
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSpanValidation(t *testing.T) {
	c, _ := NewFine(100)
	if _, err := c.ExtractSpan(0, 0); err == nil {
		t.Error("empty span should fail")
	}
	if _, err := c.ExtractSpan(MaxSuperblockID, 2); err == nil {
		t.Error("span past the ID limit should fail")
	}
	c.FreezeLinks([]Superblock{{ID: 1, Size: 10}}, false)
	if _, err := c.ExtractSpan(0, 10); err == nil {
		t.Error("frozen link table should reject extraction")
	}
}

func TestInstallSpanValidation(t *testing.T) {
	mk := func() *TenantState {
		return &TenantState{Span: 10, Bytes: 40, Blocks: []MigratedBlock{
			{ID: 1, Size: 20, Off: 0},
			{ID: 2, Size: 20, Off: 20},
		}}
	}
	// The resident stranger sits OUTSIDE the install span, so each case
	// below reaches its own targeted validation branch rather than the
	// span-vacancy scan.
	dst, _ := NewFine(100)
	mustInsert(t, dst, sb(200, 10))
	before := *dst.Stats()

	cases := map[string]*TenantState{
		"nil state":     nil,
		"out of span":   func() *TenantState { s := mk(); s.Blocks[1].ID = 10; return s }(),
		"duplicate":     func() *TenantState { s := mk(); s.Blocks[1].ID = 1; return s }(),
		"bad size":      func() *TenantState { s := mk(); s.Blocks[0].Size = 0; s.Bytes = 20; return s }(),
		"oversized":     func() *TenantState { s := mk(); s.Blocks[0].Size = 200; s.Bytes = 220; return s }(),
		"byte mismatch": func() *TenantState { s := mk(); s.Bytes = 41; return s }(),
		"link oob":      func() *TenantState { s := mk(); s.Blocks[0].Links = []SuperblockID{10}; return s }(),
	}
	for name, st := range cases {
		if err := dst.InstallSpan(100, st); err == nil {
			t.Errorf("%s: install should fail", name)
		}
	}
	// Stranger inside the target span trips the vacancy scan; a bad span
	// fails before any block is examined.
	if err := dst.InstallSpan(195, mk()); err == nil {
		t.Error("resident stranger inside the span should fail install")
	}
	if err := dst.InstallSpan(MaxSuperblockID-5, mk()); err == nil {
		t.Error("span past the ID limit should fail install")
	}
	if *dst.Stats() != before || dst.Resident() != 1 {
		t.Fatal("failed install must leave the destination untouched")
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	lru, _ := NewLRU(100)
	if err := lru.InstallSpan(0, mk().withBytes(41)); err == nil {
		t.Error("LRU install must validate too")
	}
}

// withBytes mutates the declared byte total (test helper for building
// invalid states).
func (st *TenantState) withBytes(b int64) *TenantState {
	st.Bytes = b
	return st
}

// TestInstallSpanEdgeGeometry covers the adoption edge cases: an empty
// state installs as a no-op on both families, a vacant-span extract
// returns an empty state without disturbing the queue, and an
// inadmissible (overlapping-extent) LRU layout falls back to first-fit
// placement instead of verbatim adoption.
func TestInstallSpanEdgeGeometry(t *testing.T) {
	empty := &TenantState{Span: 10}
	if empty.Contiguous() {
		t.Error("empty state must not be contiguous")
	}
	f, _ := NewFine(100)
	if err := f.InstallSpan(0, empty); err != nil {
		t.Fatalf("empty install (FIFO): %v", err)
	}
	if f.Resident() != 0 {
		t.Fatal("empty install must not create residents")
	}
	mustInsert(t, f, sb(1, 10))
	st, err := f.ExtractSpan(50, 10)
	if err != nil || len(st.Blocks) != 0 {
		t.Fatalf("vacant-span extract: %v, %d blocks", err, len(st.Blocks))
	}
	if f.Resident() != 1 {
		t.Fatal("vacant-span extract must not disturb residents")
	}

	l, _ := NewLRU(100)
	if err := l.InstallSpan(0, empty); err != nil {
		t.Fatalf("empty install (LRU): %v", err)
	}
	if _, err := l.ExtractSpan(0, 0); err == nil {
		t.Error("LRU empty span should fail extraction")
	}
	// Overlapping extents are individually valid but not adoptable as a
	// layout; the blocks must land via first-fit placement instead.
	overlap := &TenantState{Span: 10, Bytes: 40, Blocks: []MigratedBlock{
		{ID: 1, Size: 20, Off: 0},
		{ID: 2, Size: 20, Off: 10},
	}}
	if err := l.InstallSpan(0, overlap); err != nil {
		t.Fatalf("overlapping-extent install must fall back to placement: %v", err)
	}
	if l.Resident() != 2 || !l.Access(1) || !l.Access(2) {
		t.Fatal("fallback placement lost blocks")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A populated destination always places rather than adopts.
	l2, _ := NewLRU(100)
	mustInsert(t, l2, sb(50, 10))
	good := &TenantState{Span: 10, Bytes: 40, Blocks: []MigratedBlock{
		{ID: 1, Size: 20, Off: 0},
		{ID: 2, Size: 20, Off: 20},
	}}
	if err := l2.InstallSpan(0, good); err != nil {
		t.Fatalf("install into populated LRU: %v", err)
	}
	if l2.Resident() != 3 {
		t.Fatalf("resident = %d, want 3", l2.Resident())
	}
	if err := l2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBindMigratedLinkEdgeCases exercises the silent link-rebuild paths:
// duplicate carried links collapse, self-links patch through their own
// declaration, and extraction tolerates dead link sources.
func TestBindMigratedLinkEdgeCases(t *testing.T) {
	dst, _ := NewFine(200)
	st := &TenantState{Span: 10, Bytes: 40, Blocks: []MigratedBlock{
		{ID: 1, Size: 20, Off: 0, Links: []SuperblockID{2, 2, 1}}, // dup + self
		{ID: 2, Size: 20, Off: 20, Links: []SuperblockID{1}},
	}}
	if err := dst.InstallSpan(0, st); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if removeEdge(&[]SuperblockID{1, 2}, 3) {
		t.Error("removeEdge of a missing edge must report false")
	}

	// Dead-source severing: block 20 links into the span, then is
	// evicted by pressure before the span departs. onExtract must skip
	// the dead source without miscounting unlink events.
	c, _ := NewFine(100)
	mustInsert(t, c, Superblock{ID: 0, Size: 40})
	mustInsert(t, c, Superblock{ID: 20, Size: 40, Links: []SuperblockID{0}})
	mustInsert(t, c, Superblock{ID: 21, Size: 80}) // evicts 0 and 20
	if c.Contains(20) {
		t.Fatal("setup: block 20 should have been evicted")
	}
	before := c.Stats().InterUnitLinksRemoved
	if _, err := c.ExtractSpan(0, 10); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().InterUnitLinksRemoved - before; got != 0 {
		t.Fatalf("dead-source extract charged %d unlinks, want 0", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTenantStateCodecRoundTrip(t *testing.T) {
	c, _ := NewFine(1000)
	driveMig(t, c, migStream(3, 2000, 200))
	st, err := c.ExtractSpan(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	data := st.Encode()
	got, err := DecodeTenantState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("decode(encode(state)) != state")
	}
	// Corruption at every byte must fail decode or stay structurally valid.
	if _, err := DecodeTenantState(data[:len(data)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := DecodeTenantState(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestDecodeTenantStateMalformed walks every structural rejection of the
// wire decoder with hand-built payloads.
func TestDecodeTenantStateMalformed(t *testing.T) {
	u32 := func(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }
	header := func(span uint32, bytes uint64, n uint32) []byte {
		return u32(u64(u32([]byte(tenantStateMagic), span), bytes), n)
	}
	block := func(buf []byte, id, size uint32, off uint64, links ...uint32) []byte {
		buf = u64(u32(u32(buf, id), size), off)
		buf = u32(buf, uint32(len(links)))
		for _, l := range links {
			buf = u32(buf, l)
		}
		return buf
	}
	cases := map[string][]byte{
		"bad magic":        []byte("XXXX0000000000000000"),
		"truncated header": []byte(tenantStateMagic)[:4],
		"span over limit":  header(^uint32(0), 0, 0),
		"negative bytes":   header(10, 1<<63, 0),
		"count > payload":  header(10, 0, 1000),
		"id out of span":   block(header(10, 20, 1), 10, 20, 0),
		"zero size":        block(header(10, 0, 1), 1, 0, 0),
		"negative size":    block(header(10, 0, 1), 1, 1<<31, 0),
		"negative offset":  block(header(10, 20, 1), 1, 20, 1<<63),
		"links > payload":  u32(u64(u32(u32(header(10, 20, 1), 1), 20), 0), 1000),
		"link out of span": block(header(10, 20, 1), 1, 20, 0, 10),
		"truncated block":  block(header(10, 40, 2), 1, 20, 0, 2, 3, 4, 5, 6),
		"sum mismatch":     block(header(10, 21, 1), 1, 20, 0),
	}
	for name, data := range cases {
		if _, err := DecodeTenantState(data); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func FuzzTenantStateCodec(f *testing.F) {
	c, _ := NewFine(1000)
	for _, ev := range migStream(11, 500, 64) {
		if !c.Access(ev.id) {
			c.Insert(Superblock{ID: ev.id, Size: ev.size, Links: ev.links})
		}
	}
	if st, err := c.ExtractSpan(0, 64); err == nil {
		f.Add(st.Encode())
	}
	f.Add([]byte(tenantStateMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeTenantState(data)
		if err != nil {
			return
		}
		again, err := DecodeTenantState(st.Encode())
		if err != nil {
			t.Fatalf("re-decode of re-encoded state failed: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatal("decode∘encode not idempotent")
		}
	})
}

// TestPolicyMigratable: every policy Migratable names builds a cache
// that implements SpanMigrator, and the policies that inherit the FIFO
// methods without carrying their controller state are not named.
func TestPolicyMigratable(t *testing.T) {
	for k := PolicyFlush; k <= PolicyGenerational; k++ {
		p := Policy{Kind: k, Units: 8}
		c, err := p.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(SpanMigrator); p.Migratable() && !ok {
			t.Errorf("%s: Migratable but its cache is no SpanMigrator", p)
		}
	}
	for _, k := range []PolicyKind{PolicyAdaptive, PolicyPreemptive, PolicyGenerational} {
		if p := (Policy{Kind: k, Units: 8}); p.Migratable() {
			t.Errorf("%s: must not be Migratable", p)
		}
	}
}
