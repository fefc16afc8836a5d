package service

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dynocache/internal/core"
	"dynocache/internal/sim"
)

// TestReplayBatchFailurePaths injects each ReplayBatch failure mid-batch
// and requires both replay paths (the devirtualized engine loop and the
// Verify-mode interface loop) to fail the same way: the error surfaces,
// the double-entry ledger still balances, the tenant ledger and shard
// Stats agree across the paths, and a following good batch succeeds.
// Adaptive covers the counter flush that runs before every insert.
func TestReplayBatchFailurePaths(t *testing.T) {
	tr := synth(t, "gzip", 0.05)
	capacity, err := sim.CapacityFor(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	idSpan := span(tr)
	errBoom := errors.New("regen boom")
	const faultAt = 3 // the fault fires on this regeneration of the batch

	cases := []struct {
		name string
		// fault rewrites the regenerated block (or fails regeneration);
		// nil leaves regeneration alone.
		fault func(sb core.Superblock) (core.Superblock, error)
		// badID, when set, replaces the batch's middle access.
		badID bool
	}{
		{name: "regen-error", fault: func(core.Superblock) (core.Superblock, error) {
			return core.Superblock{}, errBoom
		}},
		{name: "id-outside-span", badID: true},
		{name: "link-outside-span", fault: func(sb core.Superblock) (core.Superblock, error) {
			sb.Links = append(append([]core.SuperblockID(nil), sb.Links...), idSpan)
			return sb, nil
		}},
		{name: "block-exceeds-capacity", fault: func(sb core.Superblock) (core.Superblock, error) {
			sb.Size = capacity + 1
			return sb, nil
		}},
	}

	n := len(tr.Accesses)
	warm, faulty, after := tr.Accesses[:n/2], tr.Accesses[n/2:n/2+512], tr.Accesses[n/2+512:]
	good := func(id core.SuperblockID) (core.Superblock, error) { return tr.Blocks[id], nil }

	for _, policy := range []core.Policy{
		{Kind: core.PolicyFine},
		{Kind: core.PolicyLRU},
		{Kind: core.PolicyAdaptive},
	} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", policy, tc.name), func(t *testing.T) {
				type outcome struct {
					ledger TenantStats
					shard  core.Stats
				}
				var got [2]outcome
				for i, verify := range []bool{false, true} {
					svc, err := New(Config{Shards: 1, Policy: policy, ShardCapacity: capacity, Verify: verify})
					if err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					ten, err := svc.RegisterPinned("gzip", 0, idSpan)
					if err != nil {
						t.Fatal(err)
					}
					if err := ten.ReplayBatch(warm, good); err != nil {
						t.Fatal(err)
					}

					ids := append([]core.SuperblockID(nil), faulty...)
					if tc.badID {
						ids[len(ids)/2] = idSpan
					}
					calls := 0
					regen := func(id core.SuperblockID) (core.Superblock, error) {
						calls++
						if tc.fault != nil && calls == faultAt {
							return tc.fault(tr.Blocks[id])
						}
						return tr.Blocks[id], nil
					}
					err = ten.ReplayBatch(ids, regen)
					if err == nil {
						t.Fatalf("verify=%v: faulty batch succeeded", verify)
					}
					if tc.name == "regen-error" && !errors.Is(err, errBoom) {
						t.Errorf("verify=%v: error %v does not wrap the regen error", verify, err)
					}
					if tc.fault != nil && calls != faultAt {
						t.Errorf("verify=%v: batch went on regenerating after the fault (%d calls)", verify, calls)
					}
					if err := svc.CheckConsistency(); err != nil {
						t.Fatalf("verify=%v: ledger after failure: %v", verify, err)
					}
					got[i] = outcome{ten.Stats(), svc.ShardStats()[0]}

					if err := ten.ReplayBatch(after, good); err != nil {
						t.Fatalf("verify=%v: good batch after failure: %v", verify, err)
					}
					if err := svc.CheckConsistency(); err != nil {
						t.Fatalf("verify=%v: ledger after recovery: %v", verify, err)
					}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Errorf("engine and Verify paths diverged after the failure:\nengine %+v\nverify %+v", got[0], got[1])
				}
			})
		}
	}
}
