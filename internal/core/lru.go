package core

import (
	"fmt"
	"math"
	"sort"
)

// LRUCache is a recency-based code cache over a first-fit heap allocator.
//
// The paper argues (§3.3) that LRU-like eviction of variable-size entries
// leads to internal fragmentation: freeing recency-ordered blocks leaves
// holes that incoming blocks do not exactly fill, and compaction would
// require re-patching every link. This implementation exists to quantify
// that argument: it tracks how often evictions happen *despite* sufficient
// total free space (pure fragmentation evictions) and how much of the
// arena sits in unusable holes.
//
// The type is the Engine's recency VictimPolicy: the embedded Engine owns
// residency, offsets, sizes, counters, and links, while this struct keeps
// only the ordering state — an intrusive recency list over dense IDs and
// the hole index. Everything is flat int32 slices, so the steady state
// allocates nothing and the hot paths never chase pointers.
type LRUCache struct {
	Engine

	// Intrusive recency list: prevID/nextID are doubly-linked-list
	// neighbors indexed by SuperblockID, valid only while the block is
	// resident (the engine's where table is the membership test).
	// head is the most recently used block, tail the eviction victim.
	prevID, nextID []int32
	head, tail     int32

	holes holeList // free regions, first-fit by lowest offset
	// freeBytes mirrors the holes' byte sum so aggregate-space queries in
	// the eviction loop are O(1); CheckInvariants re-tallies it.
	freeBytes int

	// FragEvictions counts blocks evicted while total free space already
	// exceeded the incoming block's size: evictions forced purely by
	// fragmentation, the cost FIFO circular buffers avoid.
	FragEvictions uint64

	// BurstCarves counts hole-index burst passes (freeRunAndTake calls):
	// with batching, a fragmentation burst that evicts dozens of blocks
	// costs one carve/merge pass per evictRunChunk victims instead of one
	// per victim. BlocksEvicted / BurstCarves is the amortization factor.
	BurstCarves uint64

	// runIDs/runOffs/runSizes stage one victim run chunk for the batched
	// carve; fixed arrays keep the steady state allocation-free.
	runIDs, runOffs, runSizes [evictRunChunk]int32

	// preEvict, when set, runs before each eviction step; returning true
	// means it made room by other means (the compacting variant
	// defragments here) and allocation should be retried.
	preEvict func(size int) bool
}

const lruNil = int32(-1)

// evictRunChunk bounds how many recency-tail victims are staged per
// freeRunAndTake pass. Bursts rarely exceed it (the word trace averages
// ~37 victims per burst); larger chunks just grow the scratch.
const evictRunChunk = 64

var (
	_ Cache        = (*LRUCache)(nil)
	_ VictimPolicy = (*LRUCache)(nil)
	_ EngineBacked = (*LRUCache)(nil)
)

// NewLRU returns an LRU cache with the given capacity in bytes.
func NewLRU(capacity int) (*LRUCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive, got %d", capacity)
	}
	if capacity > math.MaxInt32 {
		return nil, fmt.Errorf("core: LRU capacity %d exceeds the hole index limit", capacity)
	}
	c := &LRUCache{head: lruNil, tail: lruNil}
	c.holes.reset(0, capacity)
	c.freeBytes = capacity
	c.initEngine("LRU", capacity)
	c.bindPolicy(c)
	return c, nil
}

// Units implements Cache: LRU evicts single blocks, like fine-grained FIFO.
func (c *LRUCache) Units() int { return 0 }

// growList extends the dense list tables to cover id.
func (c *LRUCache) growList(id SuperblockID) {
	if int(id) < len(c.prevID) {
		return
	}
	n := int(id) + 1
	if n < 2*len(c.prevID) {
		n = 2 * len(c.prevID)
	}
	prev := make([]int32, n)
	copy(prev, c.prevID)
	c.prevID = prev
	next := make([]int32, n)
	copy(next, c.nextID)
	c.nextID = next
}

// Reserve pre-sizes the engine tables and the recency list for IDs in
// [0, maxID].
func (c *LRUCache) Reserve(maxID SuperblockID) {
	c.Engine.Reserve(maxID)
	c.growList(maxID)
}

// FreeBytes returns the total free space across all holes.
func (c *LRUCache) FreeBytes() int { return c.freeBytes }

// ObserveHit implements VictimPolicy; a hit refreshes recency.
func (c *LRUCache) ObserveHit(id SuperblockID) { c.touch(int32(id)) }

// ObserveMiss implements VictimPolicy.
func (c *LRUCache) ObserveMiss(SuperblockID) {}

// Observes implements VictimPolicy: LRU needs the hit stream for recency.
func (c *LRUCache) Observes() (hits, misses bool) { return true, false }

// touch moves the resident block id to the front of the recency list.
func (c *LRUCache) touch(id int32) {
	if c.head == id {
		return
	}
	c.unlink(id)
	c.pushFront(id)
}

// pushFront makes id the most recently used block.
func (c *LRUCache) pushFront(id int32) {
	c.prevID[id] = lruNil
	c.nextID[id] = c.head
	if c.head != lruNil {
		c.prevID[c.head] = id
	}
	c.head = id
	if c.tail == lruNil {
		c.tail = id
	}
}

// unlink removes the resident block id from the recency list.
func (c *LRUCache) unlink(id int32) {
	p, n := c.prevID[id], c.nextID[id]
	if p != lruNil {
		c.nextID[p] = n
	} else {
		c.head = n
	}
	if n != lruNil {
		c.prevID[n] = p
	} else {
		c.tail = p
	}
}

// alloc carves size bytes off the first-fit hole; ok is false when no
// hole is big enough.
func (c *LRUCache) alloc(size int) (int, bool) {
	off, ok := c.holes.allocFirstFit(size)
	if !ok {
		return 0, false
	}
	c.freeBytes -= size
	return off, true
}

// Place implements VictimPolicy: evict least-recently-used blocks until a
// first-fit hole accommodates the new superblock.
//
// The plain LRU path batches the fragmentation burst: it stages the
// contiguous victim run off the recency tail and retires it through one
// freeRunAndTake carve/merge pass per chunk, which selects the same
// victims and the same placement as the per-victim loop (see
// freeRunAndTake) while touching the hole index once. The compacting
// variant keeps the per-victim loop because preEvict may defragment
// between steps.
func (c *LRUCache) Place(size int) (int64, error) {
	if off, ok := c.alloc(size); ok {
		return int64(off), nil
	}
	if c.preEvict != nil {
		return c.placeCompacting(size)
	}
	evicted := c.evictScratch[:0]
	var off int
	for {
		n := 0
		for v := c.tail; v != lruNil && n < evictRunChunk; v = c.prevID[v] {
			c.runIDs[n] = v
			c.runOffs[n] = int32(c.where[v])
			c.runSizes[n] = c.sizes[v]
			n++
		}
		if n == 0 {
			// Whole cache freed and it still doesn't fit: impossible
			// given the engine's capacity check.
			c.evictScratch = evicted
			c.evictBatch(evicted)
			return 0, fmt.Errorf("core: LRU could not place %d bytes in empty cache", size)
		}
		place, taken, used := c.holes.freeRunAndTake(c.runOffs[:n], c.runSizes[:n], size)
		c.BurstCarves++
		for i := 0; i < used; i++ {
			if c.freeBytes >= size {
				// There is room in aggregate, yet no hole fits: this
				// eviction is forced by fragmentation alone.
				c.FragEvictions++
			}
			victim := c.runIDs[i]
			c.unlink(victim)
			c.freeBytes += int(c.runSizes[i])
			evicted = append(evicted, SuperblockID(victim))
		}
		if taken {
			c.freeBytes -= size
			off = place
			break
		}
	}
	c.evictScratch = evicted
	c.evictBatch(evicted)
	return int64(off), nil
}

// placeCompacting is the per-victim eviction loop used when a preEvict
// hook is installed: the hook may defragment between steps, so victims
// must be retired one at a time with the hook consulted before each.
func (c *LRUCache) placeCompacting(size int) (int64, error) {
	evicted := c.evictScratch[:0]
	var off int
	for {
		if c.preEvict(size) {
			if o, ok := c.alloc(size); ok {
				off = o
				break
			}
		}
		victim := c.tail
		if victim == lruNil {
			c.evictScratch = evicted
			c.evictBatch(evicted)
			return 0, fmt.Errorf("core: LRU could not place %d bytes in empty cache", size)
		}
		if c.FreeBytes() >= size {
			c.FragEvictions++
		}
		c.unlink(victim)
		c.freeBytes += int(c.sizes[victim])
		// freeAndTake both returns the victim's bytes and, the moment the
		// merged hole fits, carves the placement out of it — one hole-index
		// pass per victim, and the merged hole is provably the first fit
		// (see freeAndTake).
		place, ok := c.holes.freeAndTake(int(c.where[victim]), int(c.sizes[victim]), size)
		evicted = append(evicted, SuperblockID(victim))
		if ok {
			c.freeBytes -= size
			off = place
			break
		}
	}
	c.evictScratch = evicted
	c.evictBatch(evicted)
	return int64(off), nil
}

// OnInserted implements VictimPolicy: make the placed block most recently
// used. Offsets and sizes live in the engine's tables.
func (c *LRUCache) OnInserted(id SuperblockID, off int64, size int) {
	c.growList(id)
	c.pushFront(int32(id))
}

// EvictAll implements VictimPolicy.
func (c *LRUCache) EvictAll() {
	order := c.evictScratch[:0]
	for id := c.head; id != lruNil; id = c.nextID[id] {
		order = append(order, SuperblockID(id))
	}
	c.evictScratch = order
	c.head, c.tail = lruNil, lruNil
	c.holes.reset(0, c.capacity)
	c.freeBytes = c.capacity
	c.evictBatch(order)
}

// UnitOf implements VictimPolicy: every block is its own eviction unit,
// so only self-links are intra-unit.
func (c *LRUCache) UnitOf(id SuperblockID) (int64, bool) {
	return c.Where(id)
}

// CheckInvariants validates allocator and list consistency.
func (c *LRUCache) CheckInvariants() error {
	if err := c.holes.checkInvariants(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Holes sorted, non-overlapping, non-adjacent, in range; the running
	// byte counter matches the tally.
	type region struct{ off, size int }
	holes := make([]region, 0, c.holes.count)
	tally := 0
	c.holes.ascend(func(off, size int) {
		holes = append(holes, region{off, size})
		tally += size
	})
	for i, h := range holes {
		if h.size <= 0 || h.off < 0 || h.off+h.size > c.capacity {
			return fmt.Errorf("core: bad hole %+v", h)
		}
		if i > 0 {
			prev := holes[i-1]
			if prev.off+prev.size >= h.off {
				return fmt.Errorf("core: holes %+v and %+v overlap or touch", prev, h)
			}
		}
	}
	if tally != c.freeBytes {
		return fmt.Errorf("core: free-byte counter %d != hole tally %d", c.freeBytes, tally)
	}
	if got := c.capacity - c.FreeBytes(); got != c.ResidentBytes() {
		return fmt.Errorf("core: allocator accounts %d resident bytes, engine %d", got, c.ResidentBytes())
	}
	// Blocks and holes partition the arena.
	regions := make([]region, 0, c.resident+len(holes))
	for id, voff := range c.where {
		if voff == absentVoff {
			continue
		}
		regions = append(regions, region{int(voff), int(c.sizes[id])})
	}
	if len(regions) != c.resident {
		return fmt.Errorf("core: resident count %d != occupied regions %d", c.resident, len(regions))
	}
	regions = append(regions, holes...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].off < regions[j].off })
	at := 0
	for _, r := range regions {
		if r.off != at {
			return fmt.Errorf("core: arena gap/overlap at %d (next region at %d)", at, r.off)
		}
		at += r.size
	}
	if at != c.capacity {
		return fmt.Errorf("core: arena regions end at %d, capacity %d", at, c.capacity)
	}
	// Recency list contains exactly the resident blocks.
	seen := 0
	for id := c.head; id != lruNil; id = c.nextID[id] {
		if !c.Contains(SuperblockID(id)) {
			return fmt.Errorf("core: recency node %d not resident", id)
		}
		seen++
		if seen > c.resident {
			return fmt.Errorf("core: recency list cycle")
		}
	}
	if seen != c.resident {
		return fmt.Errorf("core: recency list has %d nodes, engine has %d resident", seen, c.resident)
	}
	return c.checkEngineInvariants()
}
