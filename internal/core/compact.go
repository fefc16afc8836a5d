package core

import (
	"fmt"
	"slices"
)

// CompactingLRUCache is an LRU code cache that defragments instead of
// over-evicting: when an insertion fails only because free space is
// scattered, the cache slides every resident block toward the bottom of
// the arena and coalesces the free space into one hole.
//
// The paper dismisses this design in one sentence (§3.3): "compaction (to
// remove fragmentation) would require adjusting all the link pointers".
// This type exists to put numbers on that sentence: it counts the bytes
// moved and — crucially — the patched links whose encoded targets must be
// rewritten because one of their endpoints moved. An ablation benchmark
// compares the resulting overhead against FIFO circular buffers, which
// never fragment and never compact.
type CompactingLRUCache struct {
	*LRUCache

	// Compactions counts defragmentation passes.
	Compactions uint64
	// BytesMoved counts block bytes slid during compaction.
	BytesMoved uint64
	// LinksRepatched counts patched links with at least one moved
	// endpoint; each needs its encoded jump target rewritten.
	LinksRepatched uint64

	// Reusable compaction scratch: the offset-sorted resident list as
	// packed offset<<26|id keys and an epoch-stamped moved set, so
	// steady-state compaction allocates nothing.
	compactScratch []uint64
	movedMarks     []uint32
	movedEpoch     uint32
}

var _ Cache = (*CompactingLRUCache)(nil)

// NewCompactingLRU returns a compacting LRU cache.
func NewCompactingLRU(capacity int) (*CompactingLRUCache, error) {
	base, err := NewLRU(capacity)
	if err != nil {
		return nil, err
	}
	base.name = "compacting-LRU"
	c := &CompactingLRUCache{LRUCache: base}
	// Intervene inside the eviction loop too: the moment aggregate space
	// suffices, defragment instead of evicting further.
	base.preEvict = func(size int) bool {
		if c.fits(size) || c.FreeBytes() < size {
			return false
		}
		c.compact()
		return true
	}
	return c, nil
}

// fits reports whether some hole can take size bytes, without mutating.
func (c *LRUCache) fits(size int) bool { return c.holes.largest() >= size }

// markMoved stamps id into the current compaction's moved set.
func (c *CompactingLRUCache) markMoved(id SuperblockID) {
	if int(id) >= len(c.movedMarks) {
		marks := make([]uint32, len(c.where))
		copy(marks, c.movedMarks)
		c.movedMarks = marks
	}
	c.movedMarks[id] = c.movedEpoch
}

func (c *CompactingLRUCache) moved(id SuperblockID) bool {
	return int(id) < len(c.movedMarks) && c.movedMarks[id] == c.movedEpoch
}

// compactIDBits is the width of the ID field in a compaction sort key:
// every dense ID fits (MaxSuperblockID is 2^26-1).
const compactIDBits = 26

// compact slides all resident blocks to the bottom of the arena in offset
// order, leaving one coalesced hole at the top, and accounts for the link
// re-patching the move forces.
func (c *CompactingLRUCache) compact() {
	// Sort resident blocks by offset as packed offset<<26|id keys: resident
	// offsets are distinct, so the key order is the offset order, and a
	// plain integer sort needs no comparator or per-compare table lookup.
	keys := c.compactScratch[:0]
	for id := c.head; id != lruNil; id = c.nextID[id] {
		keys = append(keys, uint64(c.where[id])<<compactIDBits|uint64(id))
	}
	slices.Sort(keys)
	c.movedEpoch++
	at := 0
	var bytesMoved uint64
	for _, k := range keys {
		id := SuperblockID(k & uint64(MaxSuperblockID))
		if c.where[id] != int64(at) {
			c.markMoved(id)
			bytesMoved += uint64(c.sizes[id])
			c.where[id] = int64(at)
		}
		at += int(c.sizes[id])
	}
	c.compactScratch = keys
	c.holes.reset(at, c.capacity-at)
	// Every patched link with a moved endpoint must be rewritten: if the
	// source moved, its jump instruction moved with it (cheap) but the
	// relative target changed; if the target moved, the source's encoded
	// target is stale. Count each once.
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

// CompactionOverhead prices the defragmentation work: a memmove-class
// per-byte cost plus the paper's per-link unlinking/relinking cost
// (Equation 4's slope, charged once per stale link).
func (c *CompactingLRUCache) CompactionOverhead(perByte, perLink float64) float64 {
	return perByte*float64(c.BytesMoved) + perLink*float64(c.LinksRepatched)
}

// CheckInvariants validates the underlying allocator state.
func (c *CompactingLRUCache) CheckInvariants() error {
	if err := c.LRUCache.CheckInvariants(); err != nil {
		return fmt.Errorf("core: compacting: %w", err)
	}
	return nil
}
