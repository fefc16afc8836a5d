package sim

import (
	"fmt"
	"testing"

	"dynocache/internal/core"
	"dynocache/internal/trace"
)

// walkLinkCounts is the census oracle: one edge-major walk over the
// trace's frozen adjacency counting, per config, the links whose two
// endpoints are resident, classified intra- or inter-unit by offset. It
// reads residency and offsets off each config's FIFO queue rather than
// the kernel's residency bits or unit-token column, so it shares no
// census state with the incremental counters it checks.
func walkLinkCounts(mr *multiReplay) (intra, inter []int) {
	nCfg := mr.nCfg
	intra, inter = make([]int, nCfg), make([]int, nCfg)
	if mr.chainingDisabled {
		return intra, inter
	}
	adj := mr.tables.adj
	n := adj.NumBlocks()
	off := make([]int64, n*nCfg)
	for i := range off {
		off[i] = mcAbsent
	}
	for c := 0; c < nCfg; c++ {
		voff := mr.tail[c]
		for _, e := range mr.queue[c][mr.qfront[c]:mr.qback[c]] {
			off[int(e.id)*nCfg+c] = voff
			voff += int64(e.size)
		}
	}
	for from := 0; from < n; from++ {
		for _, to := range adj.OutRow(core.SuperblockID(from)) {
			for c := 0; c < nCfg; c++ {
				fromOff, toOff := off[from*nCfg+c], off[int(to)*nCfg+c]
				if fromOff == mcAbsent || toOff == mcAbsent {
					continue
				}
				var same bool
				switch mr.mode[c] {
				case mcFlush:
					same = true
				case mcUnit:
					same = fromOff/mr.unitSize[c] == toOff/mr.unitSize[c]
				default: // fine: every block is its own unit
					same = fromOff == toOff
				}
				if same {
					intra[c]++
				} else {
					inter[c]++
				}
			}
		}
	}
	return intra, inter
}

// censusMismatch names the first config whose incremental census differs
// from the walk, or returns nil.
func censusMismatch(mr *multiReplay) error {
	wi, wx := walkLinkCounts(mr)
	for c := 0; c < mr.nCfg; c++ {
		if i, x := mr.liveLinks(c); i != wi[c] || x != wx[c] {
			return fmt.Errorf("access %d config %d: census (%d intra, %d inter), walk (%d, %d)",
				mr.idx, c, i, x, wi[c], wx[c])
		}
	}
	return nil
}

// replaySampled drives mr over accesses in chunks that end on every
// census and occupancy boundary, calling atSample after each boundary's
// sample was taken.
func replaySampled(mr *multiReplay, accesses []core.SuperblockID, atSample func() error) error {
	ce, oe := mr.opts.CensusEvery, mr.opts.OccupancyEvery
	for len(accesses) > 0 {
		n := len(accesses)
		for _, every := range []int{ce, oe} {
			if every > 0 {
				n = min(n, every-mr.idx%every)
			}
		}
		if err := mr.replayChunk(accesses[:n]); err != nil {
			return err
		}
		accesses = accesses[n:]
		if (ce > 0 && mr.idx%ce == 0) || (oe > 0 && mr.idx%oe == 0) {
			if err := atSample(); err != nil {
				return err
			}
		}
	}
	return nil
}

// newTestKernel builds a single-pass kernel over tr for cfgs.
func newTestKernel(t *testing.T, tr *trace.Trace, cfgs []SweepConfig, opts Options) *multiReplay {
	t.Helper()
	tabs, err := buildTraceTables(tr)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := newMultiReplay(tr.Name, tabs, len(tr.Accesses), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// ladder crosses policies with pressures.
func ladder(policies []core.Policy, pressures ...int) []SweepConfig {
	var cfgs []SweepConfig
	for _, pol := range policies {
		for _, p := range pressures {
			cfgs = append(cfgs, SweepConfig{Policy: pol, Pressure: p})
		}
	}
	return cfgs
}

// selfLinkTrace builds a trace with exact link rows in which every block
// links to itself and to two others, replayed in a drifting cycle so
// blocks are evicted and re-inserted many times.
func selfLinkTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := trace.New("self-links")
	const n = 60
	for i := 0; i < n; i++ {
		links := []core.SuperblockID{
			core.SuperblockID(i),
			core.SuperblockID((i + 1) % n),
			core.SuperblockID((i * 7) % n),
		}
		if i*7%n == i || i*7%n == (i+1)%n {
			links = links[:2]
		}
		if err := tr.Define(core.Superblock{ID: core.SuperblockID(i), Size: 32 + 24*(i%7), Links: links}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		tr.Accesses = append(tr.Accesses, core.SuperblockID((i*11+i/17)%n))
	}
	return tr
}

// TestIncrementalCensusMatchesWalk is the census differential: at every
// census and occupancy sample, every config's running live-link counters
// must equal the edge-major walk, and the recorded means and occupancy
// timelines must be built from exactly those counts.
func TestIncrementalCensusMatchesWalk(t *testing.T) {
	quick := testTraces(t, 0.05, "word", "iexplore")
	cases := []struct {
		name string
		tr   *trace.Trace
		cfgs []SweepConfig
		opts Options
		// wantDirty asserts the trace exercises the raw-row path.
		wantDirty bool
	}{
		{"word/64-ladder/same-access", quick[0], ladder(core.GranularitySweep(64), 2, 6),
			Options{CensusEvery: 500, OccupancyEvery: 250}, false},
		{"iexplore/64-ladder/census", quick[1], ladder(core.GranularitySweep(64), 3, 10),
			Options{CensusEvery: 700}, false},
		{"vortex/8-ladder/occupancy", testTraces(t, 0.1, "vortex")[0], ladder(core.GranularitySweep(8), 2),
			Options{OccupancyEvery: 900}, false},
		{"dirty-links", dirtyLinkTrace(t), ladder(core.GranularitySweep(4), 1, 3),
			Options{CensusEvery: 97, OccupancyEvery: 97}, true},
		{"self-links", selfLinkTrace(t), ladder(core.GranularitySweep(8), 2, 4),
			Options{CensusEvery: 50, OccupancyEvery: 75}, false},
		{"word/no-chaining", quick[0], ladder(core.GranularitySweep(8), 4),
			Options{CensusEvery: 500, OccupancyEvery: 500, DisableChaining: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mr := newTestKernel(t, tc.tr, tc.cfgs, tc.opts)
			if tc.wantDirty && mr.rowsExact {
				t.Fatal("fixture should have inexact link rows")
			}
			nCfg := len(tc.cfgs)
			intraSum, interSum := make([]float64, nCfg), make([]float64, nCfg)
			var samples, censuses int
			var seenIntra, seenInter bool
			err := replaySampled(mr, tc.tr.Accesses, func() error {
				samples++
				if err := censusMismatch(mr); err != nil {
					return err
				}
				wi, wx := walkLinkCounts(mr)
				for c := range wi {
					seenIntra = seenIntra || wi[c] > 0
					seenInter = seenInter || wx[c] > 0
				}
				if ce := tc.opts.CensusEvery; ce > 0 && mr.idx%ce == 0 {
					censuses++
					for c := range wi {
						intraSum[c] += float64(wi[c])
						interSum[c] += float64(wx[c])
					}
				}
				if oe := tc.opts.OccupancyEvery; oe > 0 && mr.idx%oe == 0 {
					for c, res := range mr.results {
						if got := res.Occupancy[len(res.Occupancy)-1].LiveLinks; got != wi[c]+wx[c] {
							return fmt.Errorf("access %d config %d: occupancy LiveLinks %d, walk %d",
								mr.idx, c, got, wi[c]+wx[c])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if samples < 10 {
				t.Fatalf("only %d samples checked", samples)
			}
			if !tc.opts.DisableChaining && (!seenIntra || !seenInter) {
				t.Fatalf("fixture never produced both link classes (intra %v, inter %v)", seenIntra, seenInter)
			}
			for c, res := range mr.finish() {
				if tc.cfgs[c].Pressure > 1 && res.Stats.InsertedBlocks <= uint64(len(tc.tr.Blocks)) {
					t.Errorf("config %d: %d inserts over %d blocks, want re-insertions",
						c, res.Stats.InsertedBlocks, len(tc.tr.Blocks))
				}
				if censuses == 0 {
					continue
				}
				if want := intraSum[c] / float64(censuses); res.MeanIntraLinks != want {
					t.Errorf("config %d: MeanIntraLinks %g, walk %g", c, res.MeanIntraLinks, want)
				}
				if want := interSum[c] / float64(censuses); res.MeanInterLinks != want {
					t.Errorf("config %d: MeanInterLinks %g, walk %g", c, res.MeanInterLinks, want)
				}
			}
		})
	}
}

// TestIncrementalCensusMutationsDetected injects the two faults the
// census counters can suffer into a running kernel — one live link never
// charged, one owner whose eviction debits nothing — and requires the
// differential to flag each at a later sample. A dropped charge shows
// only while its owner stays resident, so samples are dense and the
// corrupted owner is the newest one.
func TestIncrementalCensusMutationsDetected(t *testing.T) {
	// newestOwner returns the slot index of the most recently inserted
	// block in a non-FLUSH config that owns at least one live link.
	newestOwner := func(mr *multiReplay) (j, c int, ok bool) {
		for c := 0; c < mr.nCfg; c++ {
			if mr.mode[c] == mcFlush {
				continue
			}
			q := mr.queue[c]
			for k := mr.qback[c] - 1; k >= mr.qfront[c]; k-- {
				j := int(q[k].id)*mr.nCfg + c
				if o := mr.own[j]; o.intra+o.inter > 0 {
					return j, c, true
				}
			}
		}
		return 0, 0, false
	}
	faults := []struct {
		name   string
		inject func(mr *multiReplay, j, c int)
	}{
		{"dropped-charge", func(mr *multiReplay, j, c int) {
			if mr.own[j].intra > 0 {
				mr.own[j].intra--
				mr.liveIntra[c]--
			} else {
				mr.own[j].inter--
				mr.liveInter[c]--
			}
		}},
		{"skipped-debit", func(mr *multiReplay, j, _ int) { mr.own[j] = ownSlot{} }},
	}
	for _, tr := range []*trace.Trace{selfLinkTrace(t), testTraces(t, 0.05, "vortex")[0]} {
		for _, f := range faults {
			t.Run(tr.Name+"/"+f.name, func(t *testing.T) {
				mr := newTestKernel(t, tr, ladder(core.GranularitySweep(8), 2, 4), Options{CensusEvery: 25})
				injectedAt := -1
				err := replaySampled(mr, tr.Accesses, func() error {
					if injectedAt < 0 && mr.idx >= len(tr.Accesses)/4 {
						if j, c, ok := newestOwner(mr); ok {
							f.inject(mr, j, c)
							injectedAt = mr.idx
						}
						return nil
					}
					return censusMismatch(mr)
				})
				if injectedAt < 0 {
					t.Fatal("no owner slot to corrupt")
				}
				if err == nil {
					t.Fatalf("fault injected at access %d went undetected", injectedAt)
				}
				t.Logf("injected at access %d, caught: %v", injectedAt, err)
			})
		}
	}
}

// TestMultiReplayResetMatchesFresh: a kernel reset after a full replay
// must carry no census, occupancy or cache state into the next one.
func TestMultiReplayResetMatchesFresh(t *testing.T) {
	tr := testTraces(t, 0.05, "word")[0]
	cfgs := ladder(core.GranularitySweep(64), 2, 6)
	opts := Options{CensusEvery: 500, OccupancyEvery: 700}
	reused := newTestKernel(t, tr, cfgs, opts)
	// Replay a shifted stream first, so the stale state differs from the
	// final state of the replay under test.
	if err := reused.replayChunk(tr.Accesses[len(tr.Accesses)/3:]); err != nil {
		t.Fatal(err)
	}
	reused.reset()
	if err := reused.replayChunk(tr.Accesses); err != nil {
		t.Fatal(err)
	}
	fresh := newTestKernel(t, tr, cfgs, opts)
	if err := fresh.replayChunk(tr.Accesses); err != nil {
		t.Fatal(err)
	}
	want := fresh.finish()
	for c, got := range reused.finish() {
		diffResults(t, fmt.Sprintf("config %d (%s p%d)", c, cfgs[c].Policy, cfgs[c].Pressure), got, want[c])
	}
}

// BenchmarkRunConfigsCensus times the single-pass kernel with census
// sampling on, as the experiments suite runs it: the 8-config FIFO-family
// ladder (FLUSH, 2..64 units, fine) on a full-scale trace, one census
// every 2000 accesses.
func BenchmarkRunConfigsCensus(b *testing.B) {
	tr := testTraces(b, 1.0, "word")[0]
	cfgs := ladder(core.GranularitySweep(64), 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfigs(tr, cfgs, Options{CensusEvery: 2000}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Accesses)), "ns/access")
}
