// Multi-configuration sweep kernel: one pass over a trace simulates an
// array of FIFO-family cache configurations simultaneously (DEW-style
// set-of-caches simulation; see PAPERS.md and DESIGN.md §14).
//
// The per-config path replays the trace once per (policy, pressure,
// capacity) point, re-decoding the same access stream and re-walking the
// same link rows every time. This kernel shares everything that is
// per-trace — the access decode, the dense size table, the frozen CSR
// link adjacency — and keeps only the truly per-config state (virtual
// head/tail, the FIFO queue, counters) in struct-of-arrays slices
// indexed by config. The hot loop's residency test collapses to one
// bitmask compare covering every config at once:
//
//   - resMask[id] holds one residency bit per config; a block resident
//     everywhere (the common case) costs a single load+compare per
//     access, total, across the whole granularity sweep.
//   - On a miss, only the configs whose bit is clear run their eviction
//     and insertion logic (bit iteration over the missing mask).
//   - Link bookkeeping, the dominant per-config cost, is shared on the
//     insert side: the inserted block's CSR rows are walked once, and
//     each edge is charged to every missing config whose endpoint is
//     resident via one bitmask AND — instead of nCfg separate walks.
//   - Eviction-side link classification runs in two passes over the
//     victim set: pass 1 clears residency bits and tags each victim's
//     idMeta.mark with the invocation epoch; pass 2 walks reverse rows
//     only for victims whose pin bit says a patched inbound link may
//     exist, classifying each source branchlessly (res bit set →
//     inter-unit survivor, mark == epoch → intra-unit co-victim). Epochs
//     are shared across configs because invocations never interleave.
//     FLUSH configs short-circuit the walks entirely: every patched link
//     dies intra-unit, so a running counter replaces classification.
//   - The live-link census (Figures 12-13) is kept as running counters,
//     not rebuilt per sample. Eviction removes a prefix of the FIFO
//     queue, so a link's older endpoint is evicted no later than its
//     younger one: each link becomes live charged to its older endpoint
//     and dies exactly when that owner is evicted, which debits the
//     owner's slot from the per-config totals.
//
// Equivalence with the per-config kernels over full core.Stats is held
// by differential tests in this package and internal/check.
package sim

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"dynocache/internal/core"
	"dynocache/internal/trace"
)

// SweepConfig names one cache configuration for the multi-configuration
// kernel: a FIFO-family policy plus a sizing rule. Capacity, when
// positive, overrides the totalBytes/Pressure derivation (both are still
// floored via effectiveCapacity, exactly like Options.Capacity on Run).
type SweepConfig struct {
	Policy   core.Policy
	Pressure int
	Capacity int
}

// maxConfigsPerPass is the kernel's width: one residency bit per config
// in a uint64. RunConfigs batches wider ladders into multiple passes.
const maxConfigsPerPass = 64

// mcAbsent marks an ID with no resident block in a config's offset
// column. Virtual offsets are never negative.
const mcAbsent = int64(-1)

// mcEntry is one FIFO queue slot: 8 bytes, so the insert-path store and
// the eviction scan stream 8 entries per cache line. Virtual offsets are
// not stored — the arena is contiguous (entry k+1 starts where entry k
// ends), so the eviction scan reconstructs each offset from the tail by
// accumulating sizes, and tail[c] always equals the front entry's offset.
type mcEntry struct {
	id   core.SuperblockID
	size int32
}

// multiReplay drives nCfg FIFO-family cache states through one pass over
// the access stream. All per-config state is kept in parallel slices
// indexed by config; per-ID state is the residency bitmask and the
// config-major offset table where[id*nCfg+c].
type multiReplay struct {
	traceName string
	tables    replayTables
	opts      Options

	chainingDisabled bool
	rowsExact        bool
	linksValid       bool

	nCfg      int
	full      uint64 // mask with one bit per config
	flushMask uint64 // bits of the FLUSH-mode configs

	meta []idMeta // id -> residency bits, patched-in filter, evict epoch
	// where maps id*nCfg + c to the block's unit token (mcAbsent when
	// absent): voff/unitSize for unit configs, voff otherwise, so two
	// resident blocks share a unit iff their tokens are equal. own maps
	// the same index to the census charge of the live links whose older
	// endpoint the block is (non-FLUSH configs only). Only census and
	// occupancy samples read them, so both are allocated — and
	// maintained — only when that sampling is on.
	where []int64
	own   []ownSlot
	epoch uint64 // eviction-invocation epoch for idMeta.mark

	// Hoisted CSR views of the frozen adjacency, so the hot loops index
	// the edge arrays directly instead of re-deriving row slices per call.
	finIdx, foutIdx     []int32
	finEdges, foutEdges []core.SuperblockID

	// Per-config SoA state. mode/unitSize/arenaCap mirror FIFOCache's
	// granularity parameters (arenaCap is the unit-rounded capacity the
	// arena actually enforces; Result.Capacity reports the unrounded
	// effective capacity, matching the per-config path).
	mode     []uint8 // 0 flush, 1 unit, 2 fine
	unitSize []int64
	arenaCap []int64
	head     []int64
	tail     []int64
	// queue[c] is a flat FIFO buffer addressed by [qfront, qback): no
	// append bookkeeping on the insert path, explicit doubling on
	// overflow, prefix compaction when the dead prefix dominates.
	queue    [][]mcEntry
	qfront   []int
	qback    []int
	resident []int
	live     []int64
	// patched maintains, for FLUSH configs only, the deduplicated
	// patched-link count — at flush time every one of them dies
	// intra-unit, which replaces the per-victim reverse-row walks. It is
	// also the FLUSH configs' census, which is intra-only.
	patched [maxConfigsPerPass]uint64
	// liveIntra/liveInter are the non-FLUSH configs' census totals: the
	// sums of every resident block's own slot.
	liveIntra, liveInter [maxConfigsPerPass]int64
	// Hot per-edge counters live in fixed arrays (no slice header or
	// bounds check in the declare loops) and fold into stats at finish.
	linksPatched   [maxConfigsPerPass]uint64
	pendingRelinks [maxConfigsPerPass]uint64
	stats          []core.Stats
	results        []*Result

	idx        int
	instrBytes uint64

	censusSamples      int
	intraSum, interSum []float64
	backSum            []float64
}

// ownSlot is one block's census charge in one config: the live links it
// owns as their older endpoint, split by unit class.
type ownSlot struct{ intra, inter int32 }

const (
	mcFlush = uint8(iota)
	mcUnit
	mcFine
)

// idMeta packs the per-ID dynamic state the hot loops touch — residency
// bits, the patched-inbound filter, and the eviction-set epoch — so a
// link endpoint or victim costs one cache-line load instead of three
// scattered ones.
//
//   - res: one residency bit per config.
//   - pin: bit c set when the block MAY have a patched inbound link in
//     config c. A conservative filter (stale bits survive silent source
//     evictions) that lets eviction skip the reverse-row walk for
//     victims that never had one.
//   - mark == the current epoch tags the block as a member of the
//     eviction set being classified (epochs are bumped per invocation
//     and shared by all configs, since invocations never interleave).
type idMeta struct {
	res  uint64
	pin  uint64
	mark uint64
}

// newMultiReplay validates and sizes every configuration. Construction
// mirrors the per-config path exactly: each policy is instantiated once
// (for its own validation errors and rounding rules) and then discarded
// in favor of the SoA state.
func newMultiReplay(name string, tabs *traceTables, nAccesses int, cfgs []SweepConfig, opts Options) (*multiReplay, error) {
	nCfg := len(cfgs)
	if nCfg == 0 {
		return nil, fmt.Errorf("sim: multi-config replay of %q needs at least one configuration", name)
	}
	if nCfg > maxConfigsPerPass {
		return nil, fmt.Errorf("sim: multi-config replay width %d exceeds %d", nCfg, maxConfigsPerPass)
	}
	if opts.Verify || opts.RecordSamples || opts.ForceGeneric {
		return nil, fmt.Errorf("sim: multi-config replay supports none of Verify, RecordSamples, ForceGeneric")
	}
	span := len(tabs.tables.sizes)
	adj := tabs.tables.adjacency(opts)
	mr := &multiReplay{
		traceName:        name,
		tables:           tabs.tables,
		opts:             opts,
		chainingDisabled: opts.DisableChaining,
		rowsExact:        adj.RowsExact(),
		linksValid:       adj.LinksValid(),
		nCfg:             nCfg,
		full:             (uint64(1)<<uint(nCfg-1))<<1 - 1,
		meta:             make([]idMeta, span),
		mode:             make([]uint8, nCfg),
		unitSize:         make([]int64, nCfg),
		arenaCap:         make([]int64, nCfg),
		head:             make([]int64, nCfg),
		tail:             make([]int64, nCfg),
		queue:            make([][]mcEntry, nCfg),
		qfront:           make([]int, nCfg),
		qback:            make([]int, nCfg),
		resident:         make([]int, nCfg),
		live:             make([]int64, nCfg),
		stats:            make([]core.Stats, nCfg),
		results:          make([]*Result, nCfg),
	}
	mr.finIdx, mr.finEdges = adj.InCSR()
	mr.foutIdx, mr.foutEdges = adj.OutCSR()
	if opts.CensusEvery > 0 || opts.OccupancyEvery > 0 {
		mr.where = make([]int64, span*nCfg)
		for i := range mr.where {
			mr.where[i] = mcAbsent
		}
		mr.own = make([]ownSlot, span*nCfg)
	}
	for c, cfg := range cfgs {
		if cfg.Pressure < 1 {
			return nil, fmt.Errorf("sim: pressure factor must be >= 1, got %d", cfg.Pressure)
		}
		capacity := tabs.totalBytes / cfg.Pressure
		switch {
		case cfg.Capacity > 0:
			capacity = cfg.Capacity
		case opts.Capacity > 0:
			capacity = opts.Capacity
		}
		eff := effectiveCapacity(capacity, tabs.maxBlock)
		// Instantiate the policy for its construction-time validation (and
		// to keep its error messages); the cache itself is discarded.
		if _, err := cfg.Policy.New(eff); err != nil {
			return nil, err
		}
		mr.arenaCap[c] = int64(eff)
		switch cfg.Policy.Kind {
		case core.PolicyFlush:
			mr.mode[c] = mcFlush
			mr.flushMask |= uint64(1) << uint(c)
			mr.unitSize[c] = int64(eff)
		case core.PolicyUnits:
			mr.mode[c] = mcUnit
			us := eff / cfg.Policy.Units
			mr.unitSize[c] = int64(us)
			mr.arenaCap[c] = int64(us * cfg.Policy.Units)
		case core.PolicyFine:
			mr.mode[c] = mcFine
		default:
			return nil, fmt.Errorf("sim: multi-config replay supports FIFO-family policies, got %s", cfg.Policy)
		}
		res := &Result{
			Benchmark: name,
			Policy:    cfg.Policy,
			Pressure:  cfg.Pressure,
			Capacity:  eff,
		}
		if opts.OccupancyEvery > 0 {
			res.Occupancy = make([]OccupancySample, 0, nAccesses/opts.OccupancyEvery+1)
		}
		mr.results[c] = res
	}
	// Presize each queue for its expected live set (plus the dead prefix
	// the compaction rule tolerates) so the miss path rarely grows it.
	// Buffers are allocated at full length: the insert path writes by
	// index against qback and never appends.
	avg := int64(1)
	if span > 0 && tabs.totalBytes > 0 {
		avg = int64(tabs.totalBytes / span)
		if avg < 1 {
			avg = 1
		}
	}
	for c := range mr.queue {
		live := int(mr.arenaCap[c] / avg)
		if live > span && span > 0 {
			live = span
		}
		mr.queue[c] = make([]mcEntry, 2*live+2048)
	}
	if opts.CensusEvery > 0 || opts.OccupancyEvery > 0 {
		mr.intraSum = make([]float64, nCfg)
		mr.interSum = make([]float64, nCfg)
		mr.backSum = make([]float64, nCfg)
	}
	return mr, nil
}

// reset returns the replay to a cold-cache state while keeping every
// allocation (meta table, queue buffers, census columns) for reuse.
// Sampled replays measure many short windows against the same
// configuration list; one reused kernel amortizes construction across
// them.
func (mr *multiReplay) reset() {
	clear(mr.meta)
	mr.epoch = 0
	for c := 0; c < mr.nCfg; c++ {
		mr.head[c], mr.tail[c] = 0, 0
		mr.qfront[c], mr.qback[c] = 0, 0
		mr.resident[c], mr.live[c] = 0, 0
		mr.patched[c], mr.linksPatched[c], mr.pendingRelinks[c] = 0, 0, 0
		mr.liveIntra[c], mr.liveInter[c] = 0, 0
		mr.stats[c] = core.Stats{}
		if occ := mr.results[c].Occupancy; occ != nil {
			mr.results[c].Occupancy = occ[:0]
		}
	}
	for i := range mr.where {
		mr.where[i] = mcAbsent
	}
	clear(mr.own)
	clear(mr.intraSum)
	clear(mr.interSum)
	clear(mr.backSum)
	mr.censusSamples = 0
	mr.idx = 0
	mr.instrBytes = 0
}

// replayChunk advances every configuration over one batch of accesses,
// splitting at census/occupancy boundaries when sampling is enabled.
func (mr *multiReplay) replayChunk(ids []core.SuperblockID) error {
	ce, oe := mr.opts.CensusEvery, mr.opts.OccupancyEvery
	if ce <= 0 && oe <= 0 {
		return mr.replayTight(ids)
	}
	for len(ids) > 0 {
		n := len(ids)
		if ce > 0 {
			if d := ce - mr.idx%ce; d < n {
				n = d
			}
		}
		if oe > 0 {
			if d := oe - mr.idx%oe; d < n {
				n = d
			}
		}
		if err := mr.replayTight(ids[:n]); err != nil {
			return err
		}
		ids = ids[n:]
		// Sample after the access that lands on the boundary, mirroring
		// the generic kernel's (gi+1)%every == 0 rule.
		if ce > 0 && mr.idx%ce == 0 {
			for c := 0; c < mr.nCfg; c++ {
				intra, inter := mr.liveLinks(c)
				mr.intraSum[c] += float64(intra)
				mr.interSum[c] += float64(inter)
				if mr.mode[c] != mcFlush {
					mr.backSum[c] += float64(16 * (intra + inter))
				}
			}
			mr.censusSamples++
		}
		if oe > 0 && mr.idx%oe == 0 {
			for c := 0; c < mr.nCfg; c++ {
				intra, inter := mr.liveLinks(c)
				mr.results[c].Occupancy = append(mr.results[c].Occupancy, OccupancySample{
					Access:        uint64(mr.idx),
					ResidentBytes: int(mr.live[c]),
					Resident:      mr.resident[c],
					LiveLinks:     intra + inter,
				})
			}
		}
	}
	return nil
}

// replayTight is the hot loop: one size-table probe and one residency
// bitmask compare per access; only configs missing the block leave it.
func (mr *multiReplay) replayTight(ids []core.SuperblockID) error {
	sizes := mr.tables.sizes
	meta := mr.meta
	full := mr.full
	instr := mr.instrBytes
	for i, id := range ids {
		if int(id) >= len(sizes) || sizes[id] == 0 {
			mr.instrBytes = instr
			mr.idx += i
			return fmt.Errorf("sim: trace %q access %d references undefined block %d", mr.traceName, mr.idx, id)
		}
		instr += uint64(sizes[id])
		if m := meta[id].res; m != full {
			if err := mr.missAll(id, ^m&full); err != nil {
				mr.instrBytes = instr
				mr.idx += i
				return fmt.Errorf("sim: trace %q access %d: %w", mr.traceName, mr.idx, err)
			}
		}
	}
	mr.instrBytes = instr
	mr.idx += len(ids)
	return nil
}

// missAll inserts id into every config whose residency bit is clear:
// per-config eviction and placement first (each touches only its own
// offset column), then one shared pass over the block's link rows
// charging declaration stats to all missing configs at once.
func (mr *multiReplay) missAll(id core.SuperblockID, missing uint64) error {
	if err := core.ValidateID(id); err != nil {
		return err
	}
	if !mr.linksValid && !mr.chainingDisabled {
		for _, to := range mr.tables.blocks[id].Links {
			if err := core.ValidateID(to); err != nil {
				return err
			}
		}
	}
	size := int64(mr.tables.sizes[id])
	nCfg := mr.nCfg
	base := int(id) * nCfg
	ww := mr.where
	head, tail, arenaCap := mr.head, mr.tail, mr.arenaCap
	for m := missing; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if size > arenaCap[c] {
			return fmt.Errorf("core: superblock %d (%d bytes) exceeds cache capacity %d", id, size, arenaCap[c])
		}
		if head[c]+size-tail[c] > arenaCap[c] {
			mr.evictFor(c, size)
		}
		voff := head[c]
		head[c] = voff + size
		if ww != nil {
			if mr.mode[c] == mcUnit {
				ww[base+c] = voff / mr.unitSize[c]
			} else {
				ww[base+c] = voff
			}
		}
		q := mr.queue[c]
		b := mr.qback[c]
		if b == len(q) {
			q = mr.growQueue(c, b)
		}
		q[b] = mcEntry{id: id, size: int32(size)}
		mr.qback[c] = b + 1
		mr.resident[c]++
		mr.live[c] += size
		st := &mr.stats[c]
		st.InsertedBlocks++
		st.InsertedBytes += uint64(size)
	}
	if !mr.chainingDisabled {
		mr.declareShared(id, missing)
	}
	// Residency bits are set only after the link walks: during its own
	// insertion a block is not yet resident (self-links are special-cased
	// by identity), matching the engine's declare/onInsert ordering.
	mr.meta[id].res |= missing
	return nil
}

// growQueue doubles config c's queue buffer (cold path: the constructor
// presizes for the expected live set). n is the current qback.
func (mr *multiReplay) growQueue(c, n int) []mcEntry {
	nq := make([]mcEntry, 2*n+2048)
	copy(nq, mr.queue[c][:n])
	mr.queue[c] = nq
	return nq
}

// declareShared charges the insertion-time link declaration of id to
// every config in missing: one walk over the forward row (patched iff
// the target is resident, self-links always), one walk over the reverse
// row (pending relinks from resident sources). Residency per config is
// one bit test, so each edge costs a mask AND plus a bit iteration over
// only the configs it is actually patched in. With census sampling on,
// each edge that becomes live in a non-FLUSH config is also charged to
// its older endpoint: id is the newest block in every missing config, so
// that is the target of an out-row edge, the source of an in-row edge,
// and id itself for a self-link.
func (mr *multiReplay) declareShared(id core.SuperblockID, missing uint64) {
	meta := mr.meta
	lp := &mr.linksPatched
	pp := &mr.patched
	fm := mr.flushMask
	census := mr.own != nil
	outRow := mr.foutEdges[mr.foutIdx[id]:mr.foutIdx[id+1]]
	if mr.rowsExact {
		for _, to := range outRow {
			mt := &meta[to]
			m := missing
			if to != id {
				m &= mt.res
			}
			mt.pin |= m
			for x := m; x != 0; x &= x - 1 {
				lp[bits.TrailingZeros64(x)]++
			}
			for x := m & fm; x != 0; x &= x - 1 {
				pp[bits.TrailingZeros64(x)]++
			}
			if census && m&^fm != 0 {
				mr.chargeLive(to, id, m&^fm)
			}
		}
	} else {
		// The frozen rows dropped duplicates or out-of-range targets: the
		// per-declaration LinksPatched stat honors the raw row, while the
		// FLUSH patched-edge counter tracks the deduplicated relation.
		span := len(meta)
		for _, to := range mr.tables.blocks[id].Links {
			m := missing
			if to != id {
				if int(to) >= span {
					continue
				}
				m &= meta[to].res
			}
			for x := m; x != 0; x &= x - 1 {
				lp[bits.TrailingZeros64(x)]++
			}
		}
		for _, to := range outRow {
			mt := &meta[to]
			m := missing
			if to != id {
				m &= mt.res
			}
			mt.pin |= m
			for x := m & fm; x != 0; x &= x - 1 {
				pp[bits.TrailingZeros64(x)]++
			}
			if census && m&^fm != 0 {
				mr.chargeLive(to, id, m&^fm)
			}
		}
	}
	var relinked uint64
	for _, from := range mr.finEdges[mr.finIdx[id]:mr.finIdx[id+1]] {
		if from == id {
			continue
		}
		m := meta[from].res & missing
		relinked |= m
		for x := m; x != 0; x &= x - 1 {
			c := bits.TrailingZeros64(x)
			lp[c]++
			mr.pendingRelinks[c]++
		}
		for x := m & fm; x != 0; x &= x - 1 {
			pp[bits.TrailingZeros64(x)]++
		}
		if census && m&^fm != 0 {
			mr.chargeLive(from, id, m&^fm)
		}
	}
	meta[id].pin |= relinked
}

// chargeLive records one link between owner (its older endpoint) and
// other going live in every config of m (non-FLUSH configs only): it is
// classified intra-unit iff the two unit tokens are equal, and charged to
// both owner's slot and the config's totals.
func (mr *multiReplay) chargeLive(owner, other core.SuperblockID, m uint64) {
	nCfg := mr.nCfg
	ob, xb := int(owner)*nCfg, int(other)*nCfg
	where, own := mr.where, mr.own
	for ; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		o := &own[ob+c]
		if where[ob+c] == where[xb+c] {
			o.intra++
			mr.liveIntra[c]++
		} else {
			o.inter++
			mr.liveInter[c]++
		}
	}
}

// evictFor runs one eviction invocation for config c, making room for an
// insertion of the given size. Frontier rules mirror FIFOCache.evictFor.
func (mr *multiReplay) evictFor(c int, size int64) {
	need := mr.head[c] + size - mr.arenaCap[c]
	var frontier int64
	switch mr.mode[c] {
	case mcFlush:
		frontier = mr.head[c]
	case mcUnit:
		q := mr.unitSize[c]
		frontier = (need + q - 1) / q * q
	default:
		frontier = need
	}
	mr.evictBelow(c, frontier)
}

// evictBelow removes, as one eviction invocation for config c, every
// block whose start offset is below frontier, with link classification
// done against offsets instead of mark epochs: the eviction set is
// exactly the resident blocks below the frontier, so an inbound source
// with offset >= frontier survives (inter-unit unlink) and one below it
// dies with the set (intra-unit flush).
func (mr *multiReplay) evictBelow(c int, frontier int64) {
	q := mr.queue[c]
	qf, qb := mr.qfront[c], mr.qback[c]
	voff := mr.tail[c] // == the front entry's virtual offset when nonempty
	if qf == qb || voff >= frontier {
		return
	}
	st := &mr.stats[c]
	nCfg := mr.nCfg
	where := mr.where
	meta := mr.meta
	bit := uint64(1) << uint(c)
	end := qf
	if mr.mode[c] == mcFlush {
		// Full flush: no source survives, so there are no unlink events
		// and every patched link dies intra-unit — the running counter
		// replaces the per-victim reverse-row walks.
		st.IntraUnitLinksFlushed += mr.patched[c]
		mr.patched[c] = 0
		for end < qb && voff < frontier {
			v := &q[end]
			voff += int64(v.size)
			mv := &meta[v.id]
			mv.res &^= bit
			mv.pin &^= bit
			end++
		}
	} else {
		// Pass 1 selects the eviction set, drops its residency bits, and
		// stamps it with a fresh invocation epoch. Pass 2 classifies each
		// victim's inbound links against the shared metadata — a source
		// with the residency bit still set is a survivor (inter-unit
		// removal), one stamped with this epoch is a co-victim
		// (intra-unit flush) — and retires the victims in the same sweep.
		mr.epoch++
		epoch := mr.epoch
		for end < qb && voff < frontier {
			v := &q[end]
			voff += int64(v.size)
			mv := &meta[v.id]
			mv.res &^= bit
			mv.mark = epoch
			end++
		}
		finIdx, finEdges := mr.finIdx, mr.finEdges
		uc := uint(c)
		for k := qf; k < end; k++ {
			id := q[k].id
			mv := &meta[id]
			if mv.pin&bit == 0 {
				continue
			}
			// A surviving source has its residency bit set; a co-victim
			// carries this invocation's epoch. The two are mutually
			// exclusive (pass 1 cleared every victim's bit), so both
			// tallies accumulate branch-free.
			var inter, intra uint64
			for _, from := range finEdges[finIdx[id]:finIdx[id+1]] {
				mf := &meta[from]
				inter += (mf.res >> uc) & 1
				if mf.mark == epoch {
					intra++
				}
			}
			st.InterUnitLinksRemoved += inter
			st.IntraUnitLinksFlushed += intra
			if inter > 0 {
				st.UnlinkEvents++
			}
			mv.pin &^= bit
		}
	}
	if where != nil {
		// A link dies iff it has a victim endpoint, and its owner (the
		// older endpoint) is then a victim too, since eviction takes a
		// queue prefix: debiting the victims' slots retires exactly the
		// links that die.
		own := mr.own
		var intra, inter int64
		for k := qf; k < end; k++ {
			j := int(q[k].id)*nCfg + c
			where[j] = mcAbsent
			intra += int64(own[j].intra)
			inter += int64(own[j].inter)
			own[j] = ownSlot{}
		}
		mr.liveIntra[c] -= intra
		mr.liveInter[c] -= inter
	}
	n := end - qf
	bytes := voff - mr.tail[c]
	if end < qb {
		mr.tail[c] = voff
		// Reclaim queue space once the dead prefix dominates (same rule
		// as FIFOCache.evictBelow).
		if end > 1024 && end*2 > qb {
			copy(q, q[end:qb])
			mr.qfront[c] = 0
			mr.qback[c] = qb - end
		} else {
			mr.qfront[c] = end
		}
	} else {
		mr.tail[c] = mr.head[c]
		mr.qfront[c] = 0
		mr.qback[c] = 0
	}
	mr.resident[c] -= n
	mr.live[c] -= bytes
	st.EvictionInvocations++
	st.BlocksEvicted += uint64(n)
	st.BytesEvicted += uint64(bytes)
	if mr.resident[c] == 0 {
		st.FullFlushes++
	}
}

// liveLinks returns config c's live-link census, intra-unit then
// inter-unit. FLUSH configs hold one unit, so every patched link is
// intra-unit and the running patched counter is the census.
func (mr *multiReplay) liveLinks(c int) (intra, inter int) {
	if mr.mode[c] == mcFlush {
		return int(mr.patched[c]), 0
	}
	return int(mr.liveIntra[c]), int(mr.liveInter[c])
}

// finish folds the accumulated state into per-config Results, in config
// order.
func (mr *multiReplay) finish() []*Result {
	n := uint64(mr.idx)
	for c, res := range mr.results {
		st := mr.stats[c]
		st.Accesses = n
		st.Misses = st.InsertedBlocks
		st.Hits = n - st.Misses
		st.LinksPatched += mr.linksPatched[c]
		st.PendingRelinks += mr.pendingRelinks[c]
		if mr.censusSamples > 0 {
			res.MeanIntraLinks = mr.intraSum[c] / float64(mr.censusSamples)
			res.MeanInterLinks = mr.interSum[c] / float64(mr.censusSamples)
			res.MeanBackPtrBytes = mr.backSum[c] / float64(mr.censusSamples)
		}
		res.AppInstructions = float64(mr.instrBytes) / 4
		res.Stats = st
	}
	return mr.results
}

// runConfigsTables drives the kernel over prebuilt tables, batching
// ladders wider than one pass.
func runConfigsTables(name string, tabs *traceTables, accesses []core.SuperblockID, cfgs []SweepConfig, opts Options) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: multi-config replay needs at least one configuration")
	}
	out := make([]*Result, 0, len(cfgs))
	for start := 0; start < len(cfgs); start += maxConfigsPerPass {
		end := min(start+maxConfigsPerPass, len(cfgs))
		mr, err := newMultiReplay(name, tabs, len(accesses), cfgs[start:end], opts)
		if err != nil {
			return nil, err
		}
		if err := mr.replayChunk(accesses); err != nil {
			return nil, err
		}
		out = append(out, mr.finish()...)
	}
	return out, nil
}

// runMultiJob is Sweep's single-pass job: one kernel pass covering the
// FIFO-family policy subset (multiIdx) for one trace.
func runMultiJob(tr *trace.Trace, tabs *traceTables, policies []core.Policy, multiIdx []int, pressure int, opts Options) ([]*Result, error) {
	cfgs := make([]SweepConfig, len(multiIdx))
	for k, p := range multiIdx {
		cfgs[k] = SweepConfig{Policy: policies[p], Pressure: pressure}
	}
	return runConfigsTables(tr.Name, tabs, tr.Accesses, cfgs, opts)
}

// RunConfigs replays tr once (per batch of 64 configurations) through
// the multi-configuration kernel, returning one Result per SweepConfig
// in input order — Stats-identical to running each configuration through
// Run. Options.Verify, RecordSamples, and ForceGeneric are not supported
// here (Sweep falls back to per-config jobs for those).
func RunConfigs(tr *trace.Trace, cfgs []SweepConfig, opts Options) ([]*Result, error) {
	tabs, err := buildTraceTables(tr)
	if err != nil {
		return nil, err
	}
	return runConfigsTables(tr.Name, tabs, tr.Accesses, cfgs, opts)
}

// RunConfigsStream is RunConfigs over a streamed trace: the access
// sequence is never materialized, so at most one pass — 64 configs — is
// possible.
func RunConfigsStream(st *trace.Stream, cfgs []SweepConfig, opts Options) ([]*Result, error) {
	if len(cfgs) > maxConfigsPerPass {
		return nil, fmt.Errorf("sim: streamed multi-config replay cannot batch %d configs (max %d per pass)",
			len(cfgs), maxConfigsPerPass)
	}
	nAccesses := st.NumAccesses()
	if nAccesses > math.MaxInt32 {
		return nil, fmt.Errorf("sim: trace %q declares %d accesses, too many to replay", st.Name, nAccesses)
	}
	tables, maxBlock, totalBytes, err := buildTables(st.Name, st.Blocks)
	if err != nil {
		return nil, err
	}
	tabs := &traceTables{tables: tables, maxBlock: maxBlock, totalBytes: totalBytes}
	mr, err := newMultiReplay(st.Name, tabs, int(nAccesses), cfgs, opts)
	if err != nil {
		return nil, err
	}
	st.ReleaseBlocks()
	buf := trace.GetAccessBuf()
	defer trace.PutAccessBuf(buf)
	for {
		n, err := st.Next(buf)
		if n > 0 {
			if rerr := mr.replayChunk(buf[:n]); rerr != nil {
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
	return mr.finish(), nil
}
