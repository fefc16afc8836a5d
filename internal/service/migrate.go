package service

import (
	"fmt"
	"time"
)

// Live tenant migration.
//
// The frozen FNV hash decided placement once, at registration, and the
// service could never revisit it: a tenant that turned hot stayed pinned
// to its birth shard while siblings on the same shard queued behind it.
// This file replaces that with a versioned routing table plus a live
// handoff protocol:
//
//	freeze  — the tenant's migrating flag fences admission; batches get
//	          a *BacklogError retry-after, never silent loss
//	extract — an opExtract control envelope on the source owner lifts
//	          the tenant's resident span out of the cache in eviction
//	          order (core.SpanMigrator), charges the ledger to xferOut,
//	          and parks the vacated ID range
//	install — an opInstall control envelope on the destination owner
//	          re-binds the state (room-making evictions are real and
//	          credited to the tenant), charges xferIn
//	flip    — the tenant's shard pointer and the routing table swap to
//	          the destination, then the fence drops; the first retry
//	          lands on the new shard
//
// Control envelopes are serialized with batches by the owner loops, so
// each shard's double-entry ledger identity holds at every step, and a
// whole-span extract/install into an empty shard preserves the engine's
// exact geometry — solo replay equality survives arbitrary migration
// schedules.

// routeTable is one immutable version of the name→shard route. The epoch
// increments on every placement change; clients that cache a shard
// decision can compare epochs instead of re-reading the map.
type routeTable struct {
	epoch   uint64
	shardOf map[string]int
}

// setRouteLocked publishes a new routing-table version with name→shard
// updated. Caller holds s.mu (the table is also rebuilt under s.mu so
// concurrent registrations cannot lose updates).
func (s *Service) setRouteLocked(name string, shard int) {
	old := s.routes.Load()
	next := &routeTable{epoch: old.epoch + 1, shardOf: make(map[string]int, len(old.shardOf)+1)}
	for n, i := range old.shardOf {
		next.shardOf[n] = i
	}
	next.shardOf[name] = shard
	s.routes.Store(next)
}

// RouteEpoch returns the current routing-table version. It increments on
// every registration and every migration flip.
func (s *Service) RouteEpoch() uint64 { return s.routes.Load().epoch }

// ShardOf reports the shard a tenant name currently routes to.
func (s *Service) ShardOf(name string) (int, bool) {
	i, ok := s.routes.Load().shardOf[name]
	return i, ok
}

// MigrationStats is the service's migration observability counters.
type MigrationStats struct {
	Started    uint64
	Completed  uint64
	Aborted    uint64
	BytesMoved uint64 // resident bytes relocated by completed migrations
	// Flip pause is the client-visible frozen window of a migration,
	// from fence-up to fence-drop.
	FlipPauseLast  time.Duration
	FlipPauseMax   time.Duration
	FlipPauseTotal time.Duration
}

// MigrationStats snapshots the migration counters.
func (s *Service) MigrationStats() MigrationStats {
	return MigrationStats{
		Started:        s.migStarted.Load(),
		Completed:      s.migCompleted.Load(),
		Aborted:        s.migAborted.Load(),
		BytesMoved:     s.migBytes.Load(),
		FlipPauseLast:  time.Duration(s.flipLastNs.Load()),
		FlipPauseMax:   time.Duration(s.flipMaxNs.Load()),
		FlipPauseTotal: time.Duration(s.flipTotalNs.Load()),
	}
}

// Migrate moves a tenant's resident cache state to another shard with a
// live handoff. It blocks until the flip completes (typically well under
// a millisecond: two control envelopes and an in-memory state splice).
// Migrating a tenant onto its current shard is a no-op. On any failure
// the tenant's state is re-installed on the source and the tenant
// resumes there; Migrate never loses state or leaves a tenant frozen on
// a live service.
func (s *Service) Migrate(name string, dstIdx int) error {
	if dstIdx < 0 || dstIdx >= len(s.shards) {
		return fmt.Errorf("service: shard %d out of range [0, %d)", dstIdx, len(s.shards))
	}
	t, ok := s.Tenant(name)
	if !ok {
		return fmt.Errorf("service: tenant %q not registered", name)
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	src := t.sh.Load()
	dst := s.shards[dstIdx]
	if src == dst {
		return nil
	}
	// Refuse up front for policies whose state a span migration would
	// not carry whole: the tenant stays live on its source shard.
	if !s.cfg.Policy.Migratable() {
		return fmt.Errorf("service: policy %q does not support live migration", s.cfg.Policy)
	}

	s.migStarted.Add(1)
	t.migrating.Store(true)
	freeze := time.Now()
	abort := func(err error) error {
		t.migrating.Store(false)
		s.migAborted.Add(1)
		return err
	}

	env := s.getEnv()
	env.op = opExtract
	env.tenant = t
	if !src.control(env) {
		s.putEnv(env)
		return abort(ErrClosed)
	}
	pkt, err := env.mig, env.err
	s.putEnv(env)
	if err != nil {
		return abort(err)
	}

	env = s.getEnv()
	env.op = opInstall
	env.mig = pkt
	delivered := dst.control(env)
	err = env.err
	s.putEnv(env)
	if !delivered || err != nil {
		// The destination refused (ID-space exhaustion, closed owner):
		// re-install on the source, whose just-vacated span is parked on
		// its free list, and resume there. InstallSpan validates before
		// mutating, so the destination is untouched.
		if rerr := s.reinstall(src, pkt); rerr != nil {
			// State lost — unreachable for a well-formed packet on the
			// shard that just produced it. Keep the tenant fenced so the
			// broken ledger cannot be extended, and say so loudly.
			s.migAborted.Add(1)
			return fmt.Errorf("service: migrate %q: rollback failed (%v) after install error: %w", name, rerr, err)
		}
		if !delivered {
			err = ErrClosed
		}
		return abort(fmt.Errorf("service: migrate %q to shard %d: %w", name, dstIdx, err))
	}

	// Flip: publish the new shard before dropping the fence, so any
	// client that observes migrating==false also observes the new route.
	t.sh.Store(dst)
	s.mu.Lock()
	s.setRouteLocked(name, dstIdx)
	s.mu.Unlock()
	t.migrating.Store(false)

	pause := time.Since(freeze).Nanoseconds()
	s.flipLastNs.Store(pause)
	s.flipTotalNs.Add(pause)
	for {
		cur := s.flipMaxNs.Load()
		if pause <= cur || s.flipMaxNs.CompareAndSwap(cur, pause) {
			break
		}
	}
	s.migCompleted.Add(1)
	s.migBytes.Add(uint64(pkt.state.Bytes))
	return nil
}

// reinstall puts a packet back on the shard that produced it, through
// the owner when it is alive, directly once it has exited (the shard is
// quiesced then, and the caller holds migMu which fences post-Close
// ledger reads).
func (s *Service) reinstall(sh *shard, pkt *migrationPacket) error {
	env := s.getEnv()
	env.op = opInstall
	env.mig = pkt
	if sh.control(env) {
		err := env.err
		s.putEnv(env)
		return err
	}
	s.putEnv(env)
	<-sh.ownerDone
	return sh.execInstall(pkt)
}
