package core

import (
	"encoding/binary"
	"fmt"
)

// This file makes a tenant's cache state a first-class, movable value.
//
// The service layer (internal/service) places each tenant's dense ID range
// [0, span) at [base, base+span) inside a shard's engine. Live shard
// rebalancing needs to pull exactly that slice of engine state out — the
// tenant's resident superblocks, their sizes, their relative eviction
// order, and the declared links among them — and push it into another
// engine without disturbing the paper's Eq. 2–4 accounting:
//
//   - extraction is NOT an eviction: no eviction counters fire on the
//     source, because the code is not being thrown away, only relocated;
//   - installation is NOT an insertion: the destination's InsertedBlocks /
//     InsertedBytes stay untouched (the blocks were already paid for at
//     their original insertion), but any evictions the destination must
//     perform to make room are real evictions with full Stats accounting;
//   - links WITHIN the span travel with the state and are redeclared at
//     the destination; links CROSSING the span boundary cannot survive a
//     relocation (the patched branches would dangle) and are severed with
//     Eq. 4's cost model: a patched link from a surviving source into the
//     span is an individual unpatch (InterUnitLinksRemoved, and one
//     UnlinkEvent per departing block with at least one such link), while
//     pending declarations into the span are severed for free.
//
// Relative eviction order is preserved by construction: the FIFO family
// exports blocks in queue order and reinstalls them oldest-first at the
// destination's head; LRU exports in recency order (eviction victim
// first) and rebuilds the recency list with the same relative ranking.
// When the destination arena is empty the exact source geometry (virtual
// offsets for FIFO, heap extents for LRU) is adopted verbatim, so a
// tenant migrated between otherwise-idle shards behaves bit-identically
// to one that never moved.

// MigratedBlock is one resident superblock inside a TenantState. IDs and
// link targets are span-relative (engine ID minus the extraction base), so
// the state is position-independent and can be installed at any base.
type MigratedBlock struct {
	ID   SuperblockID // span-relative ID
	Size int32
	// Off is the block's arena offset at the source (virtual offset for
	// the FIFO family, heap offset for LRU). Installation adopts the
	// exact layout when the destination arena is empty and the offsets
	// are admissible; otherwise Off is only a hint and placement is
	// re-derived.
	Off int64
	// Links is the block's declared intra-span out-row (deduplicated,
	// declaration order), span-relative. Cross-span links were severed at
	// extraction and do not travel.
	Links []SuperblockID
}

// TenantState is the compact, movable form of one ID span's resident
// state: every resident block in eviction order (Blocks[0] is the next
// victim, Blocks[len-1] the most recently placed/used), with sizes,
// source offsets, and intra-span links.
type TenantState struct {
	Span   SuperblockID
	Bytes  int64 // sum of Blocks[i].Size
	Blocks []MigratedBlock
}

// SpanMigrator is implemented by caches whose per-span state can be
// extracted and reinstalled elsewhere. FIFOCache (all three granularity
// modes) and LRUCache implement it, and the policies embedding them
// inherit it — including adaptive and preemptive, whose cache-wide
// controller state it does not carry. Policy.Migratable names the
// policies it moves whole.
type SpanMigrator interface {
	// ExtractSpan removes every resident block with ID in [base,
	// base+span) and returns it as a TenantState in eviction order.
	// Residency, byte, and link bookkeeping are updated; eviction
	// counters are NOT (relocation is not eviction), but severing
	// cross-span patched links charges Eq. 4's unlink counters.
	ExtractSpan(base, span SuperblockID) (*TenantState, error)
	// InstallSpan re-creates an extracted state at a (possibly new)
	// base, preserving relative eviction order. Evictions needed to make
	// room are real evictions with full Stats accounting; the installed
	// blocks do not count as insertions. Validation runs before any
	// mutation: on error the cache is unchanged.
	InstallSpan(base SuperblockID, st *TenantState) error
}

var (
	_ SpanMigrator = (*FIFOCache)(nil)
	_ SpanMigrator = (*LRUCache)(nil)
)

// validateSpan rejects impossible migration spans and frozen link tables
// (the frozen CSR relation is immutable and cannot express a departing
// span; the service never freezes, only the solo replay kernels do).
func (e *Engine) validateSpan(base, span SuperblockID) error {
	if span < 1 {
		return fmt.Errorf("core: empty migration span")
	}
	if uint64(base)+uint64(span) > uint64(MaxSuperblockID)+1 {
		return fmt.Errorf("core: migration span [%d, %d) exceeds the ID limit %d", base, uint64(base)+uint64(span), MaxSuperblockID)
	}
	if e.links.frozen {
		return fmt.Errorf("core: cannot migrate spans on a cache with frozen link adjacency")
	}
	return nil
}

// extractState clears residency for the ordered in-span blocks and builds
// their movable state. ids must be exactly the resident blocks of [base,
// base+span) in eviction order; the policy caller has already removed
// them from its own ordering structures. Eviction counters stay
// untouched; cross-span link severing charges Eq. 4's unlink counters.
func (e *Engine) extractState(base, span SuperblockID, ids []SuperblockID) *TenantState {
	st := &TenantState{Span: span, Blocks: make([]MigratedBlock, 0, len(ids))}
	rows, events := e.links.onExtract(base, span, ids, &e.stats)
	for i, id := range ids {
		size := e.sizes[id]
		st.Blocks = append(st.Blocks, MigratedBlock{
			ID:    id - base,
			Size:  size,
			Off:   e.where[id],
			Links: rows[i],
		})
		st.Bytes += int64(size)
		e.where[id] = absentVoff
		e.resident--
		e.liveBytes -= int64(size)
	}
	e.stats.UnlinkEvents += events
	return st
}

// bindMigrated is bind() for relocated blocks: residency, bytes, and the
// link relation are re-established exactly as for an insertion, but with
// NO counter charges — InsertedBlocks/InsertedBytes because the block
// was paid for at its original insertion, and LinksPatched/PendingRelinks
// because relocation moves already-patched code (a carried edge that was
// patched at the source comes back patched; one that was pending stays
// pending and re-chains with normal accounting when its target
// regenerates). This is what makes a migrated tenant's counters
// bit-identical to a never-migrated run.
func (e *Engine) bindMigrated(sb Superblock, off int64) {
	e.grow(sb.ID)
	e.where[sb.ID] = off
	e.sizes[sb.ID] = int32(sb.Size)
	e.resident++
	e.liveBytes += int64(sb.Size)
	for _, to := range sb.Links {
		e.links.declareSilent(sb.ID, to, e.Contains)
	}
	e.links.onInsertSilent(sb.ID)
}

// declareSilent rebuilds a carried declaration without patch-cost
// charges; patchedCount still tracks the live edge set.
func (lt *linkTable) declareSilent(from, to SuperblockID, resident func(SuperblockID) bool) {
	if from > to {
		lt.grow(from)
	} else {
		lt.grow(to)
	}
	if contains(lt.out[from], to) {
		return
	}
	lt.out[from] = append(lt.out[from], to)
	if !contains(lt.in[to], from) {
		lt.in[to] = append(lt.in[to], from)
	}
	if resident(to) {
		lt.patchedCount++
	}
}

// onInsertSilent marks a relocated block resident and re-patches its
// carried inbound edges, again without counter charges.
func (lt *linkTable) onInsertSilent(id SuperblockID) {
	lt.grow(id)
	lt.resident[id] = true
	for _, from := range lt.in[id] {
		if from == id {
			continue // patched by its own declaration, as in bind
		}
		if lt.resident[from] && contains(lt.out[from], id) {
			lt.patchedCount++
		}
	}
}

// validateInstall checks a TenantState against this engine before any
// mutation, so a failed install leaves the destination untouched.
func (e *Engine) validateInstall(base SuperblockID, st *TenantState) error {
	if st == nil {
		return fmt.Errorf("core: nil tenant state")
	}
	if err := e.validateSpan(base, st.Span); err != nil {
		return err
	}
	// The whole target range must be vacant, not just the carried IDs:
	// a resident stranger inside the span would alias carried pending
	// links when it is next referenced.
	end := base + st.Span
	if limit := SuperblockID(len(e.where)); end > limit {
		end = limit
	}
	for id := base; id < end; id++ {
		if e.where[id] != absentVoff {
			return fmt.Errorf("core: block %d already resident inside install span [%d, %d)", id, base, base+st.Span)
		}
	}
	var bytes int64
	seen := make(map[SuperblockID]struct{}, len(st.Blocks))
	for _, b := range st.Blocks {
		if b.ID >= st.Span {
			return fmt.Errorf("core: migrated block %d outside declared span %d", b.ID, st.Span)
		}
		if _, dup := seen[b.ID]; dup {
			return fmt.Errorf("core: migrated block %d appears twice in tenant state", b.ID)
		}
		seen[b.ID] = struct{}{}
		if b.Size <= 0 {
			return fmt.Errorf("core: migrated block %d has non-positive size %d", b.ID, b.Size)
		}
		if int(b.Size) > e.capacity {
			return fmt.Errorf("core: migrated block %d (%d bytes) exceeds cache capacity %d", b.ID, b.Size, e.capacity)
		}
		// b.ID < st.Span plus the vacancy scan above already guarantee
		// base+b.ID is absent, so no per-block residency check is needed.
		for _, to := range b.Links {
			if to >= st.Span {
				return fmt.Errorf("core: migrated block %d links to %d outside declared span %d", b.ID, to, st.Span)
			}
		}
		bytes += int64(b.Size)
	}
	if bytes != st.Bytes {
		return fmt.Errorf("core: tenant state declares %d bytes, blocks sum to %d", st.Bytes, bytes)
	}
	return nil
}

// rebasedLinks translates a span-relative link row into engine IDs.
func rebasedLinks(base SuperblockID, links []SuperblockID) []SuperblockID {
	if len(links) == 0 {
		return nil
	}
	out := make([]SuperblockID, len(links))
	for i, to := range links {
		out[i] = base + to
	}
	return out
}

// Contiguous reports whether the state's blocks tile their source arena
// with no gaps — the precondition for the FIFO family's exact-geometry
// adoption (a tenant alone on its source shard always extracts
// contiguously; co-located tenants interleave and do not).
func (st *TenantState) Contiguous() bool {
	if len(st.Blocks) == 0 {
		return false
	}
	for i := 1; i < len(st.Blocks); i++ {
		p := st.Blocks[i-1]
		if st.Blocks[i].Off != p.Off+int64(p.Size) {
			return false
		}
	}
	return true
}

// removeEdge deletes `to` from a declared out-row, preserving order.
func removeEdge(set *[]SuperblockID, to SuperblockID) bool {
	s := *set
	for i, x := range s {
		if x == to {
			copy(s[i:], s[i+1:])
			*set = s[:len(s)-1]
			return true
		}
	}
	return false
}

// onExtract processes a span departure: it returns every extracted
// block's intra-span out-row (span-relative, for the TenantState) and the
// number of Eq. 4 unlink events, and severs every edge crossing the span
// boundary so the vacated ID range can be reused safely.
//
// Accounting mirrors onEvict's classification, minus the parts that do
// not apply to relocation: patched links FROM the span to survivors die
// with the departing source for free (exactly as a source's eviction
// would kill them); patched links from survivors INTO the span are
// unpatched one at a time (InterUnitLinksRemoved, one UnlinkEvent per
// departing block with at least one) — but unlike eviction they are NOT
// reinstated as pending, because the target is leaving this engine for
// good. Pending declarations across the boundary (either direction) are
// severed for free. Intra-span edges travel with the state and charge
// nothing — they are neither flushed nor unpatched.
func (lt *linkTable) onExtract(base, span SuperblockID, ids []SuperblockID, stats *Stats) (rows [][]SuperblockID, events uint64) {
	lt.markEvicted(ids)
	rows = make([][]SuperblockID, len(ids))
	// Outbound walk, pre-departure residency: record the intra-span row,
	// retire the patched count of every live out-edge, truncate.
	for i, id := range ids {
		out := lt.out[id]
		var row []SuperblockID
		for _, to := range out {
			if to >= base && to-base < span {
				row = append(row, to-base)
			}
			if int(to) < len(lt.resident) && lt.resident[to] {
				lt.patchedCount--
			}
		}
		rows[i] = row
		lt.out[id] = out[:0]
	}
	for _, id := range ids {
		lt.resident[id] = false
	}
	// Inbound walk over the whole span: sever every surviving out-of-span
	// edge into it. Edges into departing (marked) targets were patched
	// and charge Eq. 4; edges into absent in-span targets were pending
	// and sever for free. Removing the edge from out[from] (not just
	// unpatching) is what makes reusing the vacated ID range safe: a
	// future insert at these IDs must not spuriously re-patch a stale
	// declaration that pointed at the departed tenant's code.
	end := base + span
	if limit := SuperblockID(len(lt.in)); end > limit {
		end = limit
	}
	for to := base; to < end; to++ {
		wasPatched := lt.evicted(to)
		unlinked := false
		for _, from := range lt.in[to] {
			if from >= base && from < base+span {
				continue // intra-span: travels with the state or already dead
			}
			if int(from) >= len(lt.resident) || !lt.resident[from] {
				continue // dead source: edge not live
			}
			if !removeEdge(&lt.out[from], to) {
				continue // stale reverse entry from an earlier residency
			}
			if wasPatched {
				lt.patchedCount--
				stats.InterUnitLinksRemoved++
				unlinked = true
			}
		}
		if unlinked {
			events++
		}
	}
	return rows, events
}

// ExtractSpan implements SpanMigrator for the FIFO family. Blocks leave
// in queue (eviction) order; survivors are compacted down the virtual
// byte space — the canonical relocation of a circular buffer, free of
// charge because offsets are virtual — so the queue keeps tiling
// [tail, head) with no gaps.
func (c *FIFOCache) ExtractSpan(base, span SuperblockID) (*TenantState, error) {
	if err := c.validateSpan(base, span); err != nil {
		return nil, err
	}
	var ids []SuperblockID
	for i := c.qfront; i < len(c.queue); i++ {
		if id := c.queue[i].id; id >= base && id-base < span {
			ids = append(ids, id)
		}
	}
	st := c.extractState(base, span, ids)
	if len(ids) == 0 {
		return st, nil
	}
	// Compact the survivors in place: each keeps its order but slides
	// down by the extracted bytes that preceded it, so the tail is
	// unchanged and the head retreats by the extracted total.
	var removed int64
	w := 0
	for i := c.qfront; i < len(c.queue); i++ {
		e := c.queue[i]
		if e.id >= base && e.id-base < span {
			removed += int64(e.size)
			continue
		}
		e.voff -= removed
		c.where[e.id] = e.voff
		c.queue[w] = e
		w++
	}
	c.queue = c.queue[:w]
	c.qfront = 0
	c.head -= removed
	if w == 0 {
		c.tail = c.head
	} else {
		c.tail = c.queue[0].voff
	}
	return st, nil
}

// InstallSpan implements SpanMigrator for the FIFO family. An empty
// destination adopts the source geometry verbatim when the state is
// contiguous (bit-identical continuation for a tenant migrated between
// dedicated shards); otherwise blocks append at the head oldest-first,
// evicting for room with full Stats accounting, which preserves the
// span's relative eviction order among themselves and makes them the
// youngest blocks in the destination.
func (c *FIFOCache) InstallSpan(base SuperblockID, st *TenantState) error {
	if err := c.validateInstall(base, st); err != nil {
		return err
	}
	if c.resident == 0 {
		c.queue = c.queue[:0]
		c.qfront = 0
		if st.Contiguous() {
			c.tail = st.Blocks[0].Off
			c.head = c.tail
			for _, b := range st.Blocks {
				sb := Superblock{ID: base + b.ID, Size: int(b.Size), Links: rebasedLinks(base, b.Links)}
				c.bindMigrated(sb, b.Off)
				c.queue = append(c.queue, fifoEntry{id: sb.ID, voff: b.Off, size: int(b.Size)})
				c.head += int64(b.Size)
			}
			return nil
		}
	}
	for _, b := range st.Blocks {
		size := int(b.Size)
		if c.head+int64(size)-c.tail > int64(c.capacity) {
			c.evictFor(int64(size))
		}
		voff := c.head
		c.head += int64(size)
		sb := Superblock{ID: base + b.ID, Size: size, Links: rebasedLinks(base, b.Links)}
		c.bindMigrated(sb, voff)
		c.queue = append(c.queue, fifoEntry{id: sb.ID, voff: voff, size: size})
	}
	return nil
}

// ExtractSpan implements SpanMigrator for LRU. Blocks leave in recency
// order, eviction victim first; their heap extents return to the hole
// index (merging as a free would).
func (c *LRUCache) ExtractSpan(base, span SuperblockID) (*TenantState, error) {
	if err := c.validateSpan(base, span); err != nil {
		return nil, err
	}
	var ids []SuperblockID
	for v := c.tail; v != lruNil; v = c.prevID[v] {
		if id := SuperblockID(v); id >= base && id-base < span {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		c.unlink(int32(id))
		size := int(c.sizes[id])
		// Merging free: want is unreachable, so nothing is re-carved.
		c.holes.freeAndTake(int(c.where[id]), size, c.capacity+1)
		c.freeBytes += size
	}
	return c.extractState(base, span, ids), nil
}

// InstallSpan implements SpanMigrator for LRU. An empty destination
// adopts the exact source extents (the hole index is rebuilt as their
// complement), reproducing the source allocator state bit-for-bit;
// otherwise each block is placed first-fit in recency order — oldest
// first, so the span's relative recency ranking survives — evicting
// destination tail victims with full Stats accounting as needed.
func (c *LRUCache) InstallSpan(base SuperblockID, st *TenantState) error {
	if err := c.validateInstall(base, st); err != nil {
		return err
	}
	if c.resident == 0 && lruLayoutAdmissible(st, c.capacity) {
		// Rebuild the hole index as the complement of the adopted extents.
		order := make([]int, len(st.Blocks))
		for i := range order {
			order[i] = i
		}
		sortByOff(order, st.Blocks)
		c.holes.reset(0, 0)
		c.freeBytes = 0
		at := 0
		for _, i := range order {
			b := st.Blocks[i]
			if gap := int(b.Off) - at; gap > 0 {
				c.holes.insert(at, gap)
				c.freeBytes += gap
			}
			at = int(b.Off) + int(b.Size)
		}
		if gap := c.capacity - at; gap > 0 {
			c.holes.insert(at, gap)
			c.freeBytes += gap
		}
		for _, b := range st.Blocks {
			sb := Superblock{ID: base + b.ID, Size: int(b.Size), Links: rebasedLinks(base, b.Links)}
			c.bindMigrated(sb, b.Off)
			c.growList(sb.ID)
			c.pushFront(int32(sb.ID))
		}
		return nil
	}
	for _, b := range st.Blocks {
		off, err := c.Place(int(b.Size))
		if err != nil {
			return fmt.Errorf("core: installing migrated block %d: %w", b.ID, err)
		}
		sb := Superblock{ID: base + b.ID, Size: int(b.Size), Links: rebasedLinks(base, b.Links)}
		c.bindMigrated(sb, off)
		c.growList(sb.ID)
		c.pushFront(int32(sb.ID))
	}
	return nil
}

// lruLayoutAdmissible reports whether the state's extents can be adopted
// verbatim into an arena of the given capacity: in range, non-negative,
// and non-overlapping.
func lruLayoutAdmissible(st *TenantState, capacity int) bool {
	if len(st.Blocks) == 0 {
		return false
	}
	order := make([]int, len(st.Blocks))
	for i := range order {
		order[i] = i
	}
	sortByOff(order, st.Blocks)
	at := int64(0)
	for _, i := range order {
		b := st.Blocks[i]
		if b.Off < at || b.Off+int64(b.Size) > int64(capacity) {
			return false
		}
		at = b.Off + int64(b.Size)
	}
	return true
}

// sortByOff sorts an index slice by the corresponding block offsets
// (insertion sort: migration state is cold path, spans are modest).
func sortByOff(order []int, blocks []MigratedBlock) {
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && blocks[order[j-1]].Off > blocks[order[j]].Off {
			order[j-1], order[j] = order[j], order[j-1]
			j--
		}
	}
}

// tenantStateMagic identifies the serialized TenantState format.
const tenantStateMagic = "DTS1"

// Encode serializes the state to a compact little-endian byte form, the
// wire format a control plane would ship between shard hosts.
func (st *TenantState) Encode() []byte {
	size := 4 + 4 + 8 + 4
	for _, b := range st.Blocks {
		size += 4 + 4 + 8 + 4 + 4*len(b.Links)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, tenantStateMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Span))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Bytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Blocks)))
	for _, b := range st.Blocks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Size))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Links)))
		for _, to := range b.Links {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
		}
	}
	return buf
}

// DecodeTenantState parses a serialized TenantState, validating structure
// (magic, bounds, byte-sum consistency) but not engine-specific
// constraints — InstallSpan re-validates against the destination.
func DecodeTenantState(data []byte) (*TenantState, error) {
	r := byteReader{data: data}
	magic := r.take(4)
	if magic == nil || string(magic) != tenantStateMagic {
		return nil, fmt.Errorf("core: bad tenant state magic")
	}
	span := r.u32()
	bytes := int64(r.u64())
	n := r.u32()
	if r.err {
		return nil, fmt.Errorf("core: truncated tenant state header")
	}
	if uint64(span) > uint64(MaxSuperblockID)+1 {
		return nil, fmt.Errorf("core: tenant state span %d exceeds the ID limit", span)
	}
	if bytes < 0 {
		return nil, fmt.Errorf("core: negative tenant state byte total")
	}
	// Each block needs at least 20 bytes on the wire; reject counts the
	// remaining payload cannot possibly hold before allocating.
	if uint64(n) > uint64(len(r.data)-r.off)/20 {
		return nil, fmt.Errorf("core: tenant state block count %d exceeds payload", n)
	}
	st := &TenantState{Span: SuperblockID(span), Bytes: bytes, Blocks: make([]MigratedBlock, 0, n)}
	var sum int64
	for i := uint32(0); i < n; i++ {
		id := r.u32()
		size := int32(r.u32())
		off := int64(r.u64())
		nl := r.u32()
		if r.err {
			return nil, fmt.Errorf("core: truncated tenant state block %d", i)
		}
		if SuperblockID(id) >= st.Span {
			return nil, fmt.Errorf("core: tenant state block %d outside span %d", id, span)
		}
		if size <= 0 {
			return nil, fmt.Errorf("core: tenant state block %d has non-positive size %d", id, size)
		}
		if off < 0 {
			return nil, fmt.Errorf("core: tenant state block %d has negative offset", id)
		}
		if uint64(nl) > uint64(len(r.data)-r.off)/4 {
			return nil, fmt.Errorf("core: tenant state block %d link count %d exceeds payload", id, nl)
		}
		var links []SuperblockID
		for j := uint32(0); j < nl; j++ {
			// The nl bound above guarantees 4·nl bytes remain, so these
			// reads cannot run out of payload.
			to := r.u32()
			if SuperblockID(to) >= st.Span {
				return nil, fmt.Errorf("core: tenant state block %d links outside span %d", id, span)
			}
			links = append(links, SuperblockID(to))
		}
		st.Blocks = append(st.Blocks, MigratedBlock{ID: SuperblockID(id), Size: size, Off: off, Links: links})
		sum += int64(size)
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("core: %d trailing bytes after tenant state", len(r.data)-r.off)
	}
	if sum != st.Bytes {
		return nil, fmt.Errorf("core: tenant state declares %d bytes, blocks sum to %d", st.Bytes, sum)
	}
	return st, nil
}

// byteReader is a minimal bounds-checked little-endian cursor.
type byteReader struct {
	data []byte
	off  int
	err  bool
}

func (r *byteReader) take(n int) []byte {
	if r.err || r.off+n > len(r.data) {
		r.err = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
