// Replay kernels: the per-access critical path of the simulator.
//
// Run used to drive every access through the core.Cache interface and a
// per-access Superblock struct copy. Profiling showed the single-run
// replay loop floors the full report's wall clock (Sweep parallelizes
// across (policy, trace) pairs, so the longest trace on one core
// dictates latency). This file splits the loop into kernels chosen once
// per run:
//
//   - a devirtualized engine kernel for every cache built on core.Engine
//     (the whole in-tree policy zoo except generational): the hot loop
//     calls concrete engine methods the compiler inlines, touches only a
//     struct-of-arrays sizes table on hits, accumulates AppInstructions
//     as integer bytes, and dispatches to the policy's hit/miss
//     observers only when the policy declares it needs them (the FIFO
//     family declares neither, keeping its hit path branch-free);
//   - a generational kernel for *core.GenerationalCache, whose composite
//     two-generation structure has no single engine: same shape, with
//     the promotion logic reached through a concrete HitFast call;
//   - a generic interface kernel that additionally handles census and
//     occupancy sampling and the verification wrapper — the fallback for
//     Options{Verify: true} and third-party core.Cache implementations.
//
// All kernels produce bit-identical Results: sizes are whole bytes, so
// every partial float sum the old loop computed was an exact multiple of
// 0.25 and converting the integer byte total once at the end yields the
// same float64. Access counters are folded into the cache in batches,
// always flushed before an Insert so policies that read their own
// counters mid-run (the adaptive controller) observe exactly the values
// the per-access interface loop would produce. The kernel equality tests
// and the golden quick-report test enforce this.
package sim

import (
	"fmt"
	"io"
	"math"

	"dynocache/internal/check"
	"dynocache/internal/core"
	"dynocache/internal/trace"
)

// replayTables is the struct-of-arrays view of a trace's block table.
// The hot loop indexes sizes (one int32 load per access); the full
// Superblock definitions — which drag a Links slice header through the
// loop when copied — are only touched on the miss path.
type replayTables struct {
	sizes  []int32           // id -> size; 0 marks an undefined ID
	blocks []core.Superblock // id -> full definition, for Insert on miss
	// adj is the trace's immutable CSR link relation, built once here and
	// shared by every cache replaying these tables (sweep jobs, the
	// multi-configuration kernel); chaining-disabled runs substitute an
	// empty relation instead.
	adj *core.FrozenAdjacency
}

// adjacency returns the link relation a replay with the given options
// must freeze: the shared trace adjacency, or an empty relation when
// chaining is disabled (inserts strip their link rows).
func (t *replayTables) adjacency(opts Options) *core.FrozenAdjacency {
	if opts.DisableChaining {
		return core.EmptyAdjacency(len(t.blocks))
	}
	return t.adj
}

// buildTables densifies a block table in one pass, also computing the
// largest block (for capacity flooring) and the total bytes (maxCache).
func buildTables(name string, blocks map[core.SuperblockID]core.Superblock) (t replayTables, maxBlock, totalBytes int, err error) {
	var maxID core.SuperblockID
	for id, sb := range blocks {
		if id > maxID {
			maxID = id
		}
		if sb.Size > maxBlock {
			maxBlock = sb.Size
		}
		totalBytes += sb.Size
	}
	if maxBlock == 0 {
		return replayTables{}, 0, 0, fmt.Errorf("sim: trace %q is empty", name)
	}
	if maxBlock > math.MaxInt32 {
		return replayTables{}, 0, 0, fmt.Errorf("sim: trace %q block size %d exceeds the replay table limit", name, maxBlock)
	}
	t.sizes = make([]int32, int(maxID)+1)
	t.blocks = make([]core.Superblock, int(maxID)+1)
	// Link rows are copied into a tables-owned arena rather than aliased:
	// streamed replays recycle the decoder's block table (and the pooled
	// chunks backing its link rows) as soon as these tables are built, so
	// nothing here may point into the decoded structures.
	totalLinks := 0
	for _, sb := range blocks {
		totalLinks += len(sb.Links)
	}
	linkArena := make([]core.SuperblockID, 0, totalLinks)
	for id, sb := range blocks {
		if len(sb.Links) > 0 {
			start := len(linkArena)
			linkArena = append(linkArena, sb.Links...)
			sb.Links = linkArena[start:len(linkArena):len(linkArena)]
		}
		t.blocks[id] = sb
		t.sizes[id] = int32(sb.Size)
	}
	t.adj = core.NewFrozenAdjacency(t.blocks)
	return t, maxBlock, totalBytes, nil
}

// replay carries one run's state across kernel invocations, so the same
// kernels serve Run (one chunk: the whole access slice) and RunStream
// (many pooled chunks).
type replay struct {
	traceName string
	tables    replayTables

	raw   core.Cache
	cache core.Cache     // raw, possibly wrapped by the checker
	chk   *check.Checked // non-nil in Verify mode
	fast  bool           // devirtualized kernel selected

	// Devirtualized dispatch state: eng is non-nil when raw is built on
	// the shared engine (every in-tree policy but generational); gen is
	// non-nil for the generational composite. obsHit/obsMiss hoist the
	// policy's observer declaration out of the hot loop; ctrReads marks a
	// core.CounterReader policy (counters flushed before every insert);
	// lean selects the minimal loop when none of the three apply.
	eng             *core.Engine
	pol             core.VictimPolicy
	lru             *core.LRUCache // non-nil for plain LRU: devirtualized hit path
	obsHit, obsMiss bool
	ctrReads        bool
	lean            bool
	gen             *core.GenerationalCache

	opts Options
	res  *Result

	instrBytes    uint64 // AppInstructions accumulated as bytes
	idx           int    // accesses replayed so far (global index)
	censusSamples int
}

// sampler is the cache-side eviction sample recorder; every engine-backed
// cache satisfies it (the generational composite deliberately does not:
// its two generations have no merged invocation order).
type sampler interface {
	SetSampleRecording(on bool)
	Samples() []core.EvictionSample
}

// newReplay sizes the cache, builds the dense tables, and selects the
// kernel. nAccesses presizes the occupancy timeline; it may be an
// estimate for streamed traces.
func newReplay(name string, blocks map[core.SuperblockID]core.Superblock, nAccesses int, policy core.Policy, pressure int, opts Options) (*replay, error) {
	tables, maxBlock, totalBytes, err := buildTables(name, blocks)
	if err != nil {
		return nil, err
	}
	return newReplayFromTables(name, tables, maxBlock, totalBytes, nAccesses, policy, pressure, opts)
}

// newReplayFromTables is newReplay over prebuilt dense tables: sweeps
// build a trace's tables (and its frozen link adjacency) once and share
// them across every (policy, pressure) job replaying that trace.
func newReplayFromTables(name string, tables replayTables, maxBlock, totalBytes, nAccesses int, policy core.Policy, pressure int, opts Options) (*replay, error) {
	if pressure < 1 {
		return nil, fmt.Errorf("sim: pressure factor must be >= 1, got %d", pressure)
	}
	capacity := totalBytes / pressure
	if opts.Capacity > 0 {
		capacity = opts.Capacity
	}
	capacity = effectiveCapacity(capacity, maxBlock)
	raw, err := policy.New(capacity)
	if err != nil {
		return nil, err
	}
	maxID := core.SuperblockID(len(tables.sizes) - 1)
	var eng *core.Engine
	var gen *core.GenerationalCache
	// Replays insert each block's fixed trace definition, so the link
	// adjacency is known up front; freezing it turns the cache's link
	// maintenance into flat CSR walks (see core.FreezeLinks).
	if r, ok := raw.(interface{ Reserve(core.SuperblockID) }); ok {
		// Through the cache, not the engine: policies with their own dense
		// tables (the LRU recency list, generational promotion state)
		// shadow Engine.Reserve to pre-size those too.
		r.Reserve(maxID)
	}
	if eb, ok := raw.(core.EngineBacked); ok {
		eng = eb.ReplayEngine()
		eng.FreezeLinksShared(tables.adjacency(opts))
	} else if g, ok := raw.(*core.GenerationalCache); ok {
		gen = g
		gen.FreezeLinksShared(tables.adjacency(opts))
	}
	if opts.RecordSamples {
		if s, ok := raw.(sampler); ok {
			s.SetSampleRecording(true)
		}
	}
	rp := &replay{
		traceName: name,
		tables:    tables,
		raw:       raw,
		cache:     raw,
		eng:       eng,
		gen:       gen,
		opts:      opts,
		res: &Result{
			Benchmark: name,
			Policy:    policy,
			Pressure:  pressure,
			Capacity:  capacity,
		},
	}
	if eng != nil {
		rp.pol = eng.BoundPolicy()
		// LRU observes every hit; a concrete receiver turns that per-hit
		// interface dispatch into a direct (inlinable) call.
		rp.lru, _ = rp.pol.(*core.LRUCache)
		rp.obsHit, rp.obsMiss = eng.Observers()
		if cr, ok := rp.pol.(core.CounterReader); ok {
			rp.ctrReads = cr.ReadsCounters()
		}
		rp.lean = !rp.obsHit && !rp.obsMiss && !rp.ctrReads
	}
	if opts.Verify {
		rp.chk = check.Wrap(raw, policy)
		rp.cache = rp.chk
	}
	// The devirtualized kernels have no sampling or verification hooks;
	// any of those sends the run down the generic interface loop.
	rp.fast = (eng != nil || gen != nil) && rp.chk == nil &&
		opts.CensusEvery <= 0 && opts.OccupancyEvery <= 0 && !opts.ForceGeneric
	if rp.fast {
		// Nothing on the fast path reads the patched-link count mid-run,
		// so the cache can defer it to queries.
		if eng != nil {
			eng.SetLazyPatchedCount(true)
		} else {
			gen.SetLazyPatchedCount(true)
		}
	}
	if opts.OccupancyEvery > 0 {
		rp.res.Occupancy = make([]OccupancySample, 0, nAccesses/opts.OccupancyEvery+1)
	}
	return rp, nil
}

// replayChunk advances the replay over one batch of accesses.
func (rp *replay) replayChunk(ids []core.SuperblockID) error {
	if rp.fast {
		if rp.eng != nil {
			if rp.lean {
				return rp.replayEngineLean(ids)
			}
			return rp.replayEngine(ids)
		}
		return rp.replayGen(ids)
	}
	return rp.replayGeneric(ids)
}

// replayEngineLean is the minimal engine kernel for policies with no
// access observers and no counter-reading hooks (the FIFO family): one
// inlined residency probe per hit, access counters derived from the loop
// index and folded once per chunk. Nothing on this path observes the
// counters mid-chunk, so per-chunk folding is equivalent to per-access
// Access calls.
func (rp *replay) replayEngineLean(ids []core.SuperblockID) error {
	e := rp.eng
	sizes := rp.tables.sizes
	instr := rp.instrBytes
	var hits uint64
	for i, id := range ids {
		if int(id) >= len(sizes) || sizes[id] == 0 {
			rp.instrBytes = instr
			e.BatchAccessStats(uint64(i), hits)
			return fmt.Errorf("sim: trace %q access %d references undefined block %d", rp.traceName, rp.idx+i, id)
		}
		instr += uint64(sizes[id])
		if e.Contains(id) {
			hits++
			continue
		}
		sb := rp.tables.blocks[id]
		if rp.opts.DisableChaining {
			sb.Links = nil
		}
		if err := e.Insert(sb); err != nil {
			rp.instrBytes = instr
			e.BatchAccessStats(uint64(i)+1, hits)
			return fmt.Errorf("sim: trace %q access %d: %w", rp.traceName, rp.idx+i, err)
		}
	}
	rp.instrBytes = instr
	rp.idx += len(ids)
	e.BatchAccessStats(uint64(len(ids)), hits)
	return nil
}

// replayEngine is the devirtualized kernel for engine-backed caches
// whose policy observes accesses or reads counters: monomorphic calls
// into *core.Engine that the compiler inlines, one int32 load per hit,
// and integer instruction accounting. The policy's hit/miss observers
// are dispatched only when the policy declares it needs them (hoisted
// flags). Steady state performs zero heap allocations (enforced by
// TestZeroAllocReplayKernel).
//
// Access outcomes are tallied locally and folded into the cache's
// counters in batches. For core.CounterReader policies the batch is
// flushed before every Insert, so hooks that read the counters (the
// adaptive controller) observe exactly the per-access values the
// interface loop would produce; for everyone else the fold happens once
// per chunk, which nothing on this path can distinguish.
func (rp *replay) replayEngine(ids []core.SuperblockID) error {
	e := rp.eng
	pol := rp.pol
	lru := rp.lru
	obsHit, obsMiss := rp.obsHit, rp.obsMiss
	ctrReads := rp.ctrReads
	sizes := rp.tables.sizes
	instr := rp.instrBytes
	var accs, hits uint64
	for i, id := range ids {
		if int(id) >= len(sizes) || sizes[id] == 0 {
			rp.instrBytes = instr
			e.BatchAccessStats(accs, hits)
			return fmt.Errorf("sim: trace %q access %d references undefined block %d", rp.traceName, rp.idx+i, id)
		}
		instr += uint64(sizes[id])
		if e.Contains(id) {
			accs++
			hits++
			switch {
			case lru != nil:
				lru.ObserveHit(id)
			case obsHit:
				pol.ObserveHit(id)
			}
			continue
		}
		accs++
		if ctrReads {
			e.BatchAccessStats(accs, hits)
			accs, hits = 0, 0
		}
		if obsMiss {
			pol.ObserveMiss(id)
		}
		sb := rp.tables.blocks[id]
		if rp.opts.DisableChaining {
			sb.Links = nil
		}
		if err := e.Insert(sb); err != nil {
			rp.instrBytes = instr
			e.BatchAccessStats(accs, hits)
			return fmt.Errorf("sim: trace %q access %d: %w", rp.traceName, rp.idx+i, err)
		}
	}
	rp.instrBytes = instr
	rp.idx += len(ids)
	e.BatchAccessStats(accs, hits)
	return nil
}

// replayGen is the devirtualized kernel for the generational composite,
// which has no single engine: the promotion logic runs through a
// concrete HitFast call and the wrapper's counters are batch-folded with
// the same flush-before-Insert discipline as replayEngine.
func (rp *replay) replayGen(ids []core.SuperblockID) error {
	g := rp.gen
	sizes := rp.tables.sizes
	instr := rp.instrBytes
	var accs, hits uint64
	for i, id := range ids {
		if int(id) >= len(sizes) || sizes[id] == 0 {
			rp.instrBytes = instr
			g.BatchAccessStats(accs, hits)
			return fmt.Errorf("sim: trace %q access %d references undefined block %d", rp.traceName, rp.idx+i, id)
		}
		instr += uint64(sizes[id])
		if g.HitFast(id) {
			accs++
			hits++
			continue
		}
		accs++
		g.BatchAccessStats(accs, hits)
		accs, hits = 0, 0
		sb := rp.tables.blocks[id]
		if rp.opts.DisableChaining {
			sb.Links = nil
		}
		if err := g.Insert(sb); err != nil {
			rp.instrBytes = instr
			return fmt.Errorf("sim: trace %q access %d: %w", rp.traceName, rp.idx+i, err)
		}
	}
	rp.instrBytes = instr
	rp.idx += len(ids)
	g.BatchAccessStats(accs, hits)
	return nil
}

// replayGeneric is the portable interface kernel: it mirrors the
// original Run loop (interface dispatch per access) and carries the
// census, occupancy, and verification hooks.
func (rp *replay) replayGeneric(ids []core.SuperblockID) error {
	cache := rp.cache
	sizes := rp.tables.sizes
	opts := rp.opts
	for i, id := range ids {
		gi := rp.idx + i
		if int(id) >= len(sizes) || sizes[id] == 0 {
			return fmt.Errorf("sim: trace %q access %d references undefined block %d", rp.traceName, gi, id)
		}
		rp.instrBytes += uint64(sizes[id])
		if !cache.Access(id) {
			sb := rp.tables.blocks[id]
			if opts.DisableChaining {
				sb.Links = nil
			}
			if err := cache.Insert(sb); err != nil {
				return fmt.Errorf("sim: trace %q access %d: %w", rp.traceName, gi, err)
			}
		}
		if rp.chk != nil {
			if err := rp.chk.Err(); err != nil {
				return fmt.Errorf("sim: trace %q access %d: verification failed: %w", rp.traceName, gi, err)
			}
		}
		if opts.CensusEvery > 0 && (gi+1)%opts.CensusEvery == 0 {
			intra, inter := cache.LinkCensus()
			rp.res.MeanIntraLinks += float64(intra)
			rp.res.MeanInterLinks += float64(inter)
			rp.res.MeanBackPtrBytes += float64(cache.BackPtrTableBytes())
			rp.censusSamples++
		}
		if opts.OccupancyEvery > 0 && (gi+1)%opts.OccupancyEvery == 0 {
			intra, inter := cache.LinkCensus()
			rp.res.Occupancy = append(rp.res.Occupancy, OccupancySample{
				Access:        uint64(gi + 1),
				ResidentBytes: cache.ResidentBytes(),
				Resident:      cache.Resident(),
				LiveLinks:     intra + inter,
			})
		}
	}
	rp.idx += len(ids)
	return nil
}

// finish folds the accumulated state into the Result.
func (rp *replay) finish() *Result {
	res := rp.res
	if rp.censusSamples > 0 {
		res.MeanIntraLinks /= float64(rp.censusSamples)
		res.MeanInterLinks /= float64(rp.censusSamples)
		res.MeanBackPtrBytes /= float64(rp.censusSamples)
	}
	// Sizes are whole bytes, so this single conversion equals the exact
	// per-access float sum the loop used to maintain.
	res.AppInstructions = float64(rp.instrBytes) / 4
	res.Stats = *rp.cache.Stats()
	if rp.opts.RecordSamples {
		if s, ok := rp.raw.(sampler); ok {
			res.Samples = s.Samples()
		}
	}
	return res
}

// RunStream replays a streamed trace against the policy at the given
// cache pressure without materializing the access sequence: accesses
// are decoded into pooled chunk buffers (shared across concurrent
// replays, e.g. sweep workers) and fed through the same kernels as Run,
// so the result is identical to Run on the materialized trace.
func RunStream(st *trace.Stream, policy core.Policy, pressure int, opts Options) (*Result, error) {
	nAccesses := st.NumAccesses()
	if nAccesses > math.MaxInt32 {
		return nil, fmt.Errorf("sim: trace %q declares %d accesses, too many to replay", st.Name, nAccesses)
	}
	rp, err := newReplay(st.Name, st.Blocks, int(nAccesses), policy, pressure, opts)
	if err != nil {
		return nil, err
	}
	// The replay owns private copies of everything it needs from the
	// block table; recycle the decoder's structures before the long
	// replay loop rather than after it.
	st.ReleaseBlocks()
	buf := trace.GetAccessBuf()
	defer trace.PutAccessBuf(buf)
	for {
		n, err := st.Next(buf)
		if n > 0 {
			if rerr := rp.replayChunk(buf[:n]); rerr != nil {
				return nil, rerr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sim: trace %q: %w", st.Name, err)
		}
	}
	return rp.finish(), nil
}
