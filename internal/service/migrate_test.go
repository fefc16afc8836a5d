package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/sim"
	"dynocache/internal/stats"
	"dynocache/internal/trace"
)

// migrateRetry migrates and retries transient coordinator contention;
// only used by tests that fire migrations while another may be racing.
func migrateRetry(t *testing.T, svc *Service, name string, dst int) {
	t.Helper()
	if err := svc.Migrate(name, dst); err != nil {
		t.Fatalf("migrate %q to %d: %v", name, dst, err)
	}
}

// TestMigrateSoloEquality is the tentpole acceptance: a tenant alone on
// its shard, migrated across every shard mid-replay, must finish with
// ledger counters bit-identical to a single-threaded sim replay of the
// same stream — the handoff preserved the cache's exact geometry and
// eviction order at every hop.
func TestMigrateSoloEquality(t *testing.T) {
	policies := []core.Policy{
		{Kind: core.PolicyUnits, Units: 8},
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyCompactingLRU},
	}
	for _, policy := range policies {
		for _, verify := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verify=%v", policy, verify), func(t *testing.T) {
				tr := synth(t, "gzip", 0.25)
				capacity, err := sim.CapacityFor(tr, 2)
				if err != nil {
					t.Fatal(err)
				}
				svc, err := New(Config{
					Shards:        4,
					Policy:        policy,
					ShardCapacity: capacity,
					Verify:        verify,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				ten, err := svc.RegisterPinned("gzip", 0, span(tr))
				if err != nil {
					t.Fatal(err)
				}
				// Replay in quarters, hopping shards 0→1→2→3 between them
				// and finishing back on 0 (which reuses the vacated span).
				hops := []int{1, 2, 3, 0}
				n := len(tr.Accesses)
				for i, dst := range hops {
					lo, hi := i*n/4, (i+1)*n/4
					part := &trace.Trace{Blocks: tr.Blocks, Accesses: tr.Accesses[lo:hi]}
					replayAll(t, ten, part, 64)
					migrateRetry(t, svc, "gzip", dst)
					if got := ten.Shard(); got != dst {
						t.Fatalf("hop %d: Shard() = %d, want %d", i, got, dst)
					}
					if err := svc.CheckConsistency(); err != nil {
						t.Fatalf("hop %d: %v", i, err)
					}
				}
				solo, err := sim.Run(tr, policy, 1, sim.Options{Capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				got, want := ten.Stats(), solo.Stats
				mismatch := got.Accesses != want.Accesses || got.Hits != want.Hits ||
					got.Misses != want.Misses ||
					got.InsertedBlocks != want.InsertedBlocks ||
					got.InsertedBytes != want.InsertedBytes ||
					got.EvictionInvocations != want.EvictionInvocations ||
					got.BlocksEvicted != want.BlocksEvicted ||
					got.BytesEvicted != want.BytesEvicted
				if mismatch {
					t.Errorf("migrated ledger diverged from solo replay:\n got %+v\nwant a=%d h=%d m=%d ib=%d iB=%d ei=%d be=%d bB=%d",
						got, want.Accesses, want.Hits, want.Misses, want.InsertedBlocks,
						want.InsertedBytes, want.EvictionInvocations, want.BlocksEvicted, want.BytesEvicted)
				}
				ms := svc.MigrationStats()
				if ms.Completed != uint64(len(hops)) || ms.Aborted != 0 {
					t.Errorf("migration counters: %+v, want %d completed, 0 aborted", ms, len(hops))
				}
				if ms.BytesMoved == 0 || ms.FlipPauseMax <= 0 || ms.FlipPauseTotal < ms.FlipPauseMax {
					t.Errorf("migration observability not populated: %+v", ms)
				}
			})
		}
	}
}

// TestRouteEpochAdvances: the versioned routing table must reflect every
// placement change, and Tenant.Shard must agree with it after the flip.
func TestRouteEpochAdvances(t *testing.T) {
	svc, err := New(Config{Shards: 3, Policy: core.Policy{Kind: core.PolicyFine}, ShardCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	e0 := svc.RouteEpoch()
	ten, err := svc.RegisterPinned("alpha", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if e := svc.RouteEpoch(); e != e0+1 {
		t.Fatalf("epoch after register = %d, want %d", e, e0+1)
	}
	if idx, ok := svc.ShardOf("alpha"); !ok || idx != 0 {
		t.Fatalf("ShardOf = %d,%v want 0,true", idx, ok)
	}
	if _, err := ten.InsertBatch([]core.Superblock{{ID: 1, Size: 32}}); err != nil {
		t.Fatal(err)
	}
	migrateRetry(t, svc, "alpha", 2)
	if e := svc.RouteEpoch(); e != e0+2 {
		t.Fatalf("epoch after migrate = %d, want %d", e, e0+2)
	}
	idx, ok := svc.ShardOf("alpha")
	if !ok || idx != 2 || ten.Shard() != 2 {
		t.Fatalf("post-flip route: ShardOf=%d,%v Shard()=%d, want 2", idx, ok, ten.Shard())
	}
	// Same-shard migration is a no-op: no epoch bump, no counters.
	if err := svc.Migrate("alpha", 2); err != nil {
		t.Fatal(err)
	}
	if e := svc.RouteEpoch(); e != e0+2 {
		t.Fatalf("no-op migration bumped epoch to %d", e)
	}
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateValidation(t *testing.T) {
	svc, err := New(Config{Shards: 2, Policy: core.Policy{Kind: core.PolicyFine}, ShardCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.RegisterPinned("alpha", 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := svc.Migrate("nobody", 1); err == nil {
		t.Error("unknown tenant should fail")
	}
	if err := svc.Migrate("alpha", 7); err == nil {
		t.Error("out-of-range shard should fail")
	}

	// Policies whose state a span migration would not carry whole refuse
	// cleanly, name themselves, and leave the tenant live on its original
	// shard: generational has no span migrator, and adaptive and
	// preemptive would leave their controller state on the source.
	for _, policy := range []core.Policy{
		{Kind: core.PolicyGenerational, Units: 8},
		{Kind: core.PolicyAdaptive},
		{Kind: core.PolicyPreemptive},
	} {
		for _, verify := range []bool{false, true} {
			nosvc, err := New(Config{Shards: 2, Policy: policy, ShardCapacity: 1 << 16, Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			ten, err := nosvc.RegisterPinned("beta", 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ten.InsertBatch([]core.Superblock{{ID: 0, Size: 16}}); err != nil {
				t.Fatal(err)
			}
			err = nosvc.Migrate("beta", 1)
			if err == nil || !strings.Contains(err.Error(), policy.String()) {
				t.Errorf("%s (verify=%v): migration error %v, want a refusal naming the policy", policy, verify, err)
			}
			if ten.Shard() != 0 {
				t.Errorf("%s: refused migration moved the tenant to shard %d", policy, ten.Shard())
			}
			missed, err := ten.AccessBatch([]core.SuperblockID{0})
			if err != nil || len(missed) != 0 {
				t.Errorf("%s: tenant state lost after refused migration: missed=%v err=%v", policy, missed, err)
			}
			if _, err := ten.InsertBatch([]core.Superblock{{ID: 1, Size: 16}}); err != nil {
				t.Errorf("%s: tenant unusable after refused migration: %v", policy, err)
			}
			if nosvc.MigrationStats().Started != 0 {
				t.Errorf("%s: refused migration should not count as started", policy)
			}
			if err := nosvc.CheckConsistency(); err != nil {
				t.Errorf("%s: %v", policy, err)
			}
			nosvc.Close()
		}
	}
}

// TestMigrateUnderLoad hammers a shared service from every tenant while
// one tenant ping-pongs between shards. Frozen-window submissions must
// surface as BacklogError retries — never lost work, never a broken
// ledger. Run with -race this is the concurrency acceptance for the
// handoff protocol.
func TestMigrateUnderLoad(t *testing.T) {
	tr := synth(t, "gzip", 0.12)
	capacity, err := sim.CapacityFor(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Shards:        3,
		Policy:        core.Policy{Kind: core.PolicyUnits, Units: 8},
		ShardCapacity: capacity,
		QueueDepth:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const tenants = 6
	tens := make([]*Tenant, tenants)
	for i := range tens {
		tens[i], err = svc.RegisterPinned(fmt.Sprintf("tenant-%d", i), i%3, span(tr))
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range tens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				replayAll(t, tens[i], tr, 32)
			}
		}(i)
	}
	// Ping-pong tenant 0 across all shards while its driver runs.
	for hop := 0; hop < 12; hop++ {
		migrateRetry(t, svc, "tenant-0", (hop+1)%3)
		if err := svc.CheckConsistency(); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
	}
	wg.Wait()
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every access was eventually applied exactly once.
	want := uint64(2 * len(tr.Accesses))
	for i, ten := range tens {
		if got := ten.Stats().Accesses; got != want {
			t.Errorf("tenant-%d: %d accesses, want %d", i, got, want)
		}
	}
	if got := svc.MigrationStats().Completed; got != 12 {
		t.Errorf("completed migrations = %d, want 12", got)
	}
}

// TestRegisterDuringMigration: registrations on source and destination
// shards race a live handoff; both must serialize cleanly through the
// owner loops and the ID-base allocator must never hand out overlapping
// spans.
func TestRegisterDuringMigration(t *testing.T) {
	svc, err := New(Config{Shards: 2, Policy: core.Policy{Kind: core.PolicyFine}, ShardCapacity: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ten, err := svc.RegisterPinned("mover", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []core.Superblock
	for i := core.SuperblockID(0); i < 200; i++ {
		blocks = append(blocks, core.Superblock{ID: i, Size: 64})
	}
	if _, err := ten.InsertBatch(blocks); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nt, err := svc.RegisterPinned(fmt.Sprintf("r-%d", i), i%2, 64)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := nt.InsertBatch([]core.Superblock{{ID: 0, Size: 32}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for hop := 0; hop < 20; hop++ {
		migrateRetry(t, svc, "mover", (hop+1)%2)
	}
	close(stop)
	wg.Wait()
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := ten.Stats().InsertedBlocks; got != 200 {
		t.Errorf("mover lost blocks across migrations: inserted=%d", got)
	}
}

// TestCloseRacingMigration: Close during a migration storm must not
// deadlock, lose tenant state, or leave the ledger open. Migrations that
// lose the race fail with ErrClosed (possibly after rolling back onto a
// quiesced source shard).
func TestCloseRacingMigration(t *testing.T) {
	for round := 0; round < 8; round++ {
		svc, err := New(Config{Shards: 2, Policy: core.Policy{Kind: core.PolicyFine}, ShardCapacity: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		ten, err := svc.RegisterPinned("mover", 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ten.InsertBatch([]core.Superblock{{ID: 0, Size: 100}, {ID: 1, Size: 50}}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hop := 0; hop < 50; hop++ {
				if err := svc.Migrate("mover", (hop+1)%2); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("hop %d: %v", hop, err)
					return
				}
			}
		}()
		if round%2 == 0 {
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
		}
		svc.Close()
		wg.Wait()
		if err := svc.CheckConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestMigrationChurnSoak runs a seeded random migration schedule under
// live traffic across four shards and closes the ledger after every
// single move.
func TestMigrationChurnSoak(t *testing.T) {
	tr := synth(t, "mcf", 0.12)
	capacity, err := sim.CapacityFor(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Shards:        4,
		Policy:        core.Policy{Kind: core.PolicyUnits, Units: 8},
		ShardCapacity: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const tenants = 6
	names := make([]string, tenants)
	tens := make([]*Tenant, tenants)
	for i := range tens {
		names[i] = fmt.Sprintf("tenant-%d", i)
		tens[i], err = svc.RegisterPinned(names[i], i%4, span(tr))
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range tens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replayAll(t, tens[i], tr, 48)
		}(i)
	}
	r := stats.NewRand(1234, 3)
	for move := 0; move < 30; move++ {
		name := names[r.Intn(tenants)]
		if err := svc.Migrate(name, r.Intn(4)); err != nil {
			t.Fatalf("move %d (%s): %v", move, name, err)
		}
		if err := svc.CheckConsistency(); err != nil {
			t.Fatalf("move %d (%s): %v", move, name, err)
		}
	}
	wg.Wait()
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, ten := range tens {
		if got, want := ten.Stats().Accesses, uint64(len(tr.Accesses)); got != want {
			t.Errorf("tenant-%d: %d accesses, want %d", i, got, want)
		}
	}
}

// TestManagerRebalances: all tenants start piled on shard 0 of a two-
// shard service; the manager must detect the imbalance from its RPS
// samples and spread them out.
func TestManagerRebalances(t *testing.T) {
	svc, err := New(Config{
		Shards:        2,
		Policy:        core.Policy{Kind: core.PolicyUnits, Units: 8},
		ShardCapacity: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const tenants = 4
	tens := make([]*Tenant, tenants)
	for i := range tens {
		tens[i], err = svc.RegisterPinned(fmt.Sprintf("tenant-%d", i), 0, 128)
		if err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	regen := func(id core.SuperblockID) (core.Superblock, error) {
		return core.Superblock{ID: id, Size: 48}, nil
	}
	ids := make([]core.SuperblockID, 64)
	for i := range ids {
		ids[i] = core.SuperblockID(i % 128)
	}
	for i := range tens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tens[i].ReplayBatch(ids, regen); err != nil {
					var busy *BacklogError
					if !errors.As(err, &busy) {
						t.Error(err)
						return
					}
					time.Sleep(busy.RetryAfter)
				}
			}
		}(i)
	}
	mgr := svc.StartManager(ManagerConfig{
		Interval: 20 * time.Millisecond,
		Cooldown: 40 * time.Millisecond,
	})
	deadline := time.After(5 * time.Second)
	var moved atomic.Bool
	for !moved.Load() {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			mgr.Stop()
			t.Fatalf("manager never rebalanced: %+v", svc.MigrationStats())
		default:
		}
		onOne := 0
		for _, ten := range tens {
			if ten.Shard() == 1 {
				onOne++
			}
		}
		if onOne >= 1 && mgr.Migrations() >= 1 {
			moved.Store(true)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	mgr.Stop()
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
