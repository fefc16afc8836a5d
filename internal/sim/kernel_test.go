package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynocache/internal/core"
	"dynocache/internal/trace"
)

// runStreamed round-trips tr through the binary codec and replays it with
// RunStream, so the streamed path is exercised end to end.
func runStreamed(t *testing.T, tr *trace.Trace, policy core.Policy, pressure int, opts Options) *Result {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(st, policy, pressure, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKernelEquality is the contract behind kernel dispatch: the
// devirtualized kernel, the generic interface kernel, and the streaming
// replay must produce byte-identical Results on every policy and option
// set. Policies outside the FIFO family exercise the generic fallback on
// both sides, which must also agree with its streamed form.
func TestKernelEquality(t *testing.T) {
	tr := testTraces(t, 0.3, "gzip")[0]
	policies := []core.Policy{
		{Kind: core.PolicyFlush},
		{Kind: core.PolicyUnits, Units: 8},
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyCompactingLRU},
		{Kind: core.PolicyAdaptive},
		{Kind: core.PolicyPreemptive},
		{Kind: core.PolicyGenerational, Units: 8},
	}
	optSets := []Options{
		{},
		{DisableChaining: true},
		{RecordSamples: true},
		{Verify: true},
	}
	for _, policy := range policies {
		for _, opts := range optSets {
			name := fmt.Sprintf("%s/%+v", policy, opts)
			fast, err := Run(tr, policy, 3, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gopts := opts
			gopts.ForceGeneric = true
			generic, err := Run(tr, policy, 3, gopts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			generic.Policy = fast.Policy // incidental: compare outcomes, not config echoes
			if !reflect.DeepEqual(fast, generic) {
				t.Errorf("%s: specialized and generic kernels diverge:\n got %+v\nwant %+v", name, fast, generic)
			}
			streamed := runStreamed(t, tr, policy, 3, opts)
			streamed.Policy = fast.Policy
			if !reflect.DeepEqual(fast, streamed) {
				t.Errorf("%s: streamed replay diverges:\n got %+v\nwant %+v", name, fast, streamed)
			}
		}
	}
}

// TestKernelPatchedCountMode pins the laziness contract: the fast
// kernels defer the patched-link count to queries
// (SetLazyPatchedCount), and nothing observable may depend on that —
// replaying with eager per-event counting must yield byte-identical
// Results for every policy the fast path serves.
func TestKernelPatchedCountMode(t *testing.T) {
	tr := testTraces(t, 0.3, "gzip")[0]
	for _, policy := range []core.Policy{
		{Kind: core.PolicyFlush},
		{Kind: core.PolicyUnits, Units: 8},
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyCompactingLRU},
		{Kind: core.PolicyAdaptive},
		{Kind: core.PolicyPreemptive},
		{Kind: core.PolicyGenerational, Units: 8},
	} {
		results := make([]*Result, 2)
		for eager := 0; eager < 2; eager++ {
			rp, err := newReplay(tr.Name, tr.Blocks, len(tr.Accesses), policy, 3, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rp.fast {
				t.Fatalf("%s: expected the devirtualized kernel", policy)
			}
			if eager == 1 {
				// Undo the fast path's deferral: count patched links per
				// event, as the generic loop does.
				if rp.eng != nil {
					rp.eng.SetLazyPatchedCount(false)
				} else {
					rp.gen.SetLazyPatchedCount(false)
				}
			}
			if err := rp.replayChunk(tr.Accesses); err != nil {
				t.Fatal(err)
			}
			results[eager] = rp.finish()
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: lazy and eager patched-count replays diverge:\n lazy  %+v\n eager %+v",
				policy, results[0], results[1])
		}
	}
}

// TestKernelChunkingInvariance feeds the same access sequence through the
// kernels in chunks of varying sizes; the cut points must not be
// observable in the result.
func TestKernelChunkingInvariance(t *testing.T) {
	tr := testTraces(t, 0.3, "gzip")[0]
	policy := core.Policy{Kind: core.PolicyFine}
	want, err := Run(tr, policy, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 1000, len(tr.Accesses)} {
		for _, force := range []bool{false, true} {
			rp, err := newReplay(tr.Name, tr.Blocks, len(tr.Accesses), policy, 3, Options{ForceGeneric: force})
			if err != nil {
				t.Fatal(err)
			}
			ids := tr.Accesses
			for len(ids) > 0 {
				n := chunk
				if n > len(ids) {
					n = len(ids)
				}
				if err := rp.replayChunk(ids[:n]); err != nil {
					t.Fatal(err)
				}
				ids = ids[n:]
			}
			got := rp.finish()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chunk %d (generic=%v): result differs:\n got %+v\nwant %+v", chunk, force, got, want)
			}
		}
	}
}

// TestKernelUndefinedBlockError pins the error contract all three
// kernels (engine, generational, generic) share: the failing access's
// global index and block ID.
func TestKernelUndefinedBlockError(t *testing.T) {
	tr := trace.New("bad")
	if err := tr.Define(core.Superblock{ID: 0, Size: 64}); err != nil {
		t.Fatal(err)
	}
	tr.Accesses = []core.SuperblockID{0, 0, 7}
	for _, policy := range []core.Policy{
		{Kind: core.PolicyFine}, // lean engine kernel
		{Kind: core.PolicyLRU},  // observing engine kernel
		{Kind: core.PolicyGenerational, Units: 2},
	} {
		for _, force := range []bool{false, true} {
			_, err := Run(tr, policy, 1, Options{ForceGeneric: force})
			if err == nil {
				t.Fatalf("%s generic=%v: undefined block should fail", policy, force)
			}
			if want := `trace "bad" access 2 references undefined block 7`; !strings.Contains(err.Error(), want) {
				t.Errorf("%s generic=%v: error %q does not contain %q", policy, force, err, want)
			}
		}
	}
}

// TestZeroAllocReplayKernel enforces the devirtualized kernel's
// steady-state guarantee: once the cache's dense tables have grown to the
// trace's ID span, replaying allocates nothing — for the FIFO family and
// for every policy the engine split moved onto the same arena core,
// compacting-LRU's defragmentation passes included.
func TestZeroAllocReplayKernel(t *testing.T) {
	tr := testTraces(t, 0.3, "gzip")[0]
	for _, policy := range []core.Policy{
		{Kind: core.PolicyFlush},
		{Kind: core.PolicyUnits, Units: 8},
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyCompactingLRU},
		{Kind: core.PolicyAdaptive},
		{Kind: core.PolicyPreemptive},
		{Kind: core.PolicyGenerational, Units: 8},
	} {
		rp, err := newReplay(tr.Name, tr.Blocks, len(tr.Accesses), policy, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rp.fast {
			t.Fatalf("%s: expected the devirtualized kernel", policy)
		}
		// Warm up: one full pass settles queue capacity and scratch sizes.
		if err := rp.replayChunk(tr.Accesses); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(3, func() {
			if err := rp.replayChunk(tr.Accesses); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state replay allocates %.1f objects per pass, want 0", policy, avg)
		}
	}
}

func TestSweepWorkerCap(t *testing.T) {
	// Pin a known processor count so both sides of the cap are exercised
	// even on single-core machines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	if got := sweepWorkers(1, 0); got != 1 {
		t.Errorf("sweepWorkers(1, 0) = %d, want 1", got)
	}
	if got := sweepWorkers(54, 0); got != 4 {
		t.Errorf("sweepWorkers(54, 0) = %d, want GOMAXPROCS=4", got)
	}
}

// TestSweepWorkerMemoryCap pins the memory side of the worker cap: when
// the per-job footprint eats the budget, the pool shrinks below the CPU
// count — but never below one worker, however large a single job is.
func TestSweepWorkerMemoryCap(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	oldBudget := sweepMemoryBudget
	defer func() { sweepMemoryBudget = oldBudget }()

	sweepMemoryBudget = 1 << 20
	if got := sweepWorkers(54, 300<<10); got != 3 {
		t.Errorf("sweepWorkers with 1MiB budget / 300KiB jobs = %d, want 3", got)
	}
	if got := sweepWorkers(54, 64<<20); got != 1 {
		t.Errorf("sweepWorkers with oversized jobs = %d, want 1 (never starve)", got)
	}
	// A zero estimate means unknown footprint: CPU cap only.
	if got := sweepWorkers(54, 0); got != 8 {
		t.Errorf("sweepWorkers with unknown footprint = %d, want GOMAXPROCS=8", got)
	}
	if detectMemoryBudget() <= 0 {
		t.Error("detectMemoryBudget must return a positive budget")
	}
}

// TestKernelInsertError drives both kernels into the mid-chunk Insert
// failure path: a link target beyond the dense-ID limit passes trace
// construction but must fail the insert, with access counters flushed
// consistently.
func TestKernelInsertError(t *testing.T) {
	blocks := map[core.SuperblockID]core.Superblock{
		0: {ID: 0, Size: 64, Links: []core.SuperblockID{1 << 30}},
	}
	for _, policy := range []core.Policy{
		{Kind: core.PolicyFine}, // lean engine kernel
		{Kind: core.PolicyLRU},  // observing engine kernel
		{Kind: core.PolicyGenerational, Units: 2},
	} {
		for _, force := range []bool{false, true} {
			rp, err := newReplay("badlink", blocks, 1, policy, 1, Options{ForceGeneric: force})
			if err != nil {
				t.Fatal(err)
			}
			err = rp.replayChunk([]core.SuperblockID{0})
			if err == nil || !strings.Contains(err.Error(), "dense-ID limit") {
				t.Errorf("%s generic=%v: replay with invalid link = %v, want dense-ID limit error", policy, force, err)
			}
		}
	}
}

// TestBuildTablesOversizedBlock pins the replay-table size guard.
func TestBuildTablesOversizedBlock(t *testing.T) {
	blocks := map[core.SuperblockID]core.Superblock{
		0: {ID: 0, Size: 1 << 40},
	}
	if _, _, _, err := buildTables("huge", blocks); err == nil ||
		!strings.Contains(err.Error(), "replay table limit") {
		t.Errorf("buildTables with 2^40-byte block = %v, want table-limit error", err)
	}
}

// TestRunStreamErrors covers the streamed replay's failure paths: an
// empty trace rejected at setup, and a decode error surfacing mid-replay.
func TestRunStreamErrors(t *testing.T) {
	policy := core.Policy{Kind: core.PolicyFine}
	var empty bytes.Buffer
	if err := trace.New("empty").Write(&empty); err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream(st, policy, 2, Options{}); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Errorf("streamed empty trace = %v, want empty-trace error", err)
	}

	tr := testTraces(t, 0.05, "gzip")[0]
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-5]
	st, err = trace.NewStream(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream(st, policy, 2, Options{}); err == nil {
		t.Error("truncated stream should fail the replay")
	}

	// A structurally valid stream whose access section references an
	// undefined block must surface the kernel's error through RunStream.
	bad := trace.New("badstream")
	if err := bad.Define(core.Superblock{ID: 0, Size: 64}); err != nil {
		t.Fatal(err)
	}
	bad.Accesses = []core.SuperblockID{0, 9}
	buf.Reset()
	if err := bad.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st, err = trace.NewStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStream(st, policy, 2, Options{}); err == nil ||
		!strings.Contains(err.Error(), "undefined block 9") {
		t.Errorf("streamed undefined block = %v, want undefined-block error", err)
	}
}

// TestSweepDrainsAfterFailure verifies the fail-fast path: after the
// first job errors, remaining jobs are drained without being simulated,
// and the first error is the one reported.
func TestSweepDrainsAfterFailure(t *testing.T) {
	traces := testTraces(t, 0.05, "gzip", "vortex")
	policies := core.GranularitySweep(4)
	calls := 0
	orig := runJob
	runJob = func(tr *trace.Trace, tabs *traceTables, policy core.Policy, pressure int, opts Options) (*Result, error) {
		calls++
		return nil, fmt.Errorf("boom %d", calls)
	}
	defer func() { runJob = orig }()

	// One worker makes the order deterministic: the first job fails, the
	// rest must be drained without invoking runJob again.
	_, err := sweep(traces, policies, 2, Options{}, 1)
	if err == nil {
		t.Fatal("sweep should propagate the job failure")
	}
	if !strings.Contains(err.Error(), "boom 1") {
		t.Errorf("err = %v, want the first failure (boom 1)", err)
	}
	if calls != 1 {
		t.Errorf("runJob ran %d times after a failure, want 1 (drain without simulating)", calls)
	}
}
