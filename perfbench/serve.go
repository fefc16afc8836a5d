package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/service"
	"dynocache/internal/sim"
	"dynocache/internal/trace"
)

// The serve-tenants workload: a closed loop of two clients (callers of a
// code cache block on their reply), one per core, each driving one tenant
// through ReplayBatch over its seeded full-scale trace. Every
// serveMigrateEvery of its own batches, a client migrates the other
// client's tenant between the two shards only that tenant uses, so the
// migration runs beside that tenant's replay (whose batches meet the
// migration fence and retry) without adding a goroutine, and every tenant
// stays alone on its shard, where its ledger must equal a solo replay
// exactly. At one shared shard capacity word misses about half its
// accesses and gcc almost none.
var (
	serveTenants = []struct{ role, trace string }{
		{"evict_heavy", "word"},
		{"hit_heavy", "gcc"},
	}
	servePolicy = core.Policy{Kind: core.PolicyUnits, Units: 8}
	serveShards = 4 // tenant i migrates between shards 2i and 2i+1
	servePasses = 2
	serveBatch  = 64
	// serveMigrateEvery is how many of its own batches a client completes
	// between migrations of the other client's tenant.
	serveMigrateEvery = 1000
)

// serveClient is one closed-loop client and what it measured.
type serveClient struct {
	role    string
	tr      *trace.Trace
	ten     *service.Tenant
	peer    *serveClient // whose tenant this client migrates
	latUs   []float64    // ReplayBatch issue to return, retries included
	migMs   []float64    // Service.Migrate calls this client made
	retries int
	batches int
	err     error
}

func runServeTenants(env *runEnv) (*result, error) {
	res := &result{notes: map[string]any{
		"policy": servePolicy.String(), "shards": serveShards, "passes_per_round": servePasses,
		"batch": serveBatch, "migrate_every_batches": serveMigrateEvery, "clients": len(serveTenants),
		"loop": "closed", "operation": "one batch or one migration",
	}}
	var (
		setups, synths, roundS, rates       []float64
		registerUs, checkMs, batchUs, migMs []float64
		roleUs                              = map[string][]float64{}
		solo                                map[string]core.Stats
		soloNs                              float64
		rounds                              traceRounds
		retries, batches                    int
		migCompleted, migBytes              uint64
		flipTotal, flipMax                  time.Duration
		missRate                            = map[string]float64{}
		heap                                float64
	)
	b := newBudget(env.seconds)
	for env.more(b) {
		start := time.Now()
		tr := env.roundTracer(b.rounds)
		setupCPU := cpuTime()
		var traces []*trace.Trace
		d, err := tr.cpuTimed("workload.synthesize", 0, func() error {
			for _, t := range serveTenants {
				synth, err := seededTrace(t.trace, 1, env.seed)
				if err != nil {
					return err
				}
				traces = append(traces, synth)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		synths = append(synths, d.Seconds())
		capacity := traces[1].TotalBytes()
		var svc *service.Service
		if _, err := tr.timed("service.new", 0, func() (err error) {
			svc, err = service.New(service.Config{Shards: serveShards, Policy: servePolicy, ShardCapacity: capacity})
			return err
		}); err != nil {
			return nil, err
		}
		clients := make([]*serveClient, len(traces))
		for i, t := range traces {
			c := &serveClient{role: serveTenants[i].role, tr: t}
			d, err := tr.timed("service.register", 0, func() (err error) {
				c.ten, err = svc.RegisterPinned(c.role, 2*i, core.SuperblockID(t.NumBlocks()))
				return err
			})
			if err != nil {
				svc.Close()
				return nil, err
			}
			registerUs = append(registerUs, float64(d.Nanoseconds())/1e3)
			clients[i] = c
		}
		setups = append(setups, (cpuTime() - setupCPU).Seconds())
		for i, c := range clients {
			c.peer = clients[(i+1)%len(clients)]
		}

		if solo == nil {
			if solo, soloNs, err = soloLedgers(clients, capacity); err != nil {
				svc.Close()
				return nil, err
			}
		}
		root, wall := serveRound(tr, svc, clients)
		rounds.add(tr, root, wall)
		if b.rounds == 0 {
			// Later rounds would also count the latency samples pooled so far.
			heap = retainedHeapMB()
		}
		accesses, migrations := 0, 0
		for _, c := range clients {
			res.attempted += c.batches
			retries += c.retries
			batches += c.batches
			accesses += servePasses * len(c.tr.Accesses)
			batchUs = append(batchUs, c.latUs...)
			roleUs[c.role] = append(roleUs[c.role], c.latUs...)
			migMs = append(migMs, c.migMs...)
			res.attempted += len(c.migMs)
			migrations += len(c.migMs)
			if c.err != nil {
				res.attempted++
				res.failed++
			}
		}
		roundS = append(roundS, wall.Seconds())
		rates = append(rates, float64(accesses)/wall.Seconds())

		err = serveGates(tr, res, svc, clients, solo, migrations, &checkMs, b.rounds == 0)
		ms := svc.MigrationStats()
		migCompleted += ms.Completed
		migBytes += ms.BytesMoved
		flipTotal += ms.FlipPauseTotal
		flipMax = max(flipMax, ms.FlipPauseMax)
		for _, c := range clients {
			st := c.ten.Stats()
			missRate[c.role] = float64(st.Misses) / float64(st.Accesses)
		}
		tr.timed("service.close", 0, func() error { svc.Close(); return nil })
		if err != nil {
			return res, err
		}
		b.done(time.Since(start))
	}
	var sum core.Stats
	for role, st := range solo {
		addStats(&sum, &st)
		res.counts[role+".accesses"] = st.Accesses
		res.counts[role+".misses"] = st.Misses
		res.counts[role+".blocks_evicted"] = st.BlocksEvicted
		res.counts[role+".bytes_evicted"] = st.BytesEvicted
	}

	if !env.traced {
		res.median("setup_s", setups, "s")
		res.add("retained_heap_mb", heap, "MB", 1)
		res.median("round_s", roundS, "s")
		res.median("serve_acc_per_s", rates, "1/s")
		for _, p := range []struct {
			name    string
			samples []float64
			q       float64
			unit    string
		}{
			{"batch_p50_us", batchUs, 0.5, "us"},
			{"batch_p99_us", batchUs, 0.99, "us"},
			{"migrate_p50_ms", migMs, 0.5, "ms"},
			{"migrate_p90_ms", migMs, 0.9, "ms"},
		} {
			v, err := tail(p.samples, p.q, p.name)
			if err != nil {
				return res, err
			}
			res.add(p.name, v, p.unit, len(p.samples))
		}
		return res, nil
	}
	res.median("workload.synthesize_s", synths, "s")
	res.add("sim.ns_per_access", soloNs, "ns", 1)
	res.coreMetrics(&sum)
	for _, t := range serveTenants {
		p99, err := tail(roleUs[t.role], 0.99, t.role+" batch latency")
		if err != nil {
			return res, err
		}
		res.add("service.batch_p99_us."+t.role, p99, "us", len(roleUs[t.role]))
	}
	res.add("service.retries_per_batch", float64(retries)/float64(batches), "ratio", batches)
	if migCompleted == 0 {
		return res, fmt.Errorf("no migration completed")
	}
	res.add("service.flip_pause_ms.avg", float64(flipTotal.Nanoseconds())/1e6/float64(migCompleted), "ms", int(migCompleted))
	res.add("service.flip_pause_ms.max", float64(flipMax.Nanoseconds())/1e6, "ms", int(migCompleted))
	res.add("service.migrate_bytes", float64(migBytes)/float64(migCompleted), "B", int(migCompleted))
	res.median("service.register_us", registerUs, "us")
	res.median("service.check_consistency_ms", checkMs, "ms")
	for _, t := range serveTenants {
		res.add("core.miss_rate."+t.role, missRate[t.role], "ratio", 1)
	}
	return res, rounds.report(res)
}

// serveRound runs the closed loop once: every client replays its trace
// servePasses times, migrating its peer's tenant as it goes. It returns
// the loop's root span and wall time.
func serveRound(tr *tracer, svc *service.Service, clients []*serveClient) (int, time.Duration) {
	root := tr.begin("serve-tenants", 0)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.err = c.drive(tr, root, svc)
		}()
	}
	wg.Wait()
	return root, tr.end(root)
}

// drive replays the client's trace servePasses times in fixed batches.
// A BacklogError (a full queue, or the tenant frozen mid-migration) is
// retried after the hinted delay and counts as a retry, not a failure.
func (c *serveClient) drive(tr *tracer, root int, svc *service.Service) error {
	regen := func(id core.SuperblockID) (core.Superblock, error) { return c.tr.Blocks[id], nil }
	acc := c.tr.Accesses
	for p := 0; p < servePasses; p++ {
		pass := tr.begin("service.replay_pass", root)
		for cur := 0; cur < len(acc); cur += serveBatch {
			ids := acc[cur:min(cur+serveBatch, len(acc))]
			issued := time.Now()
			for {
				err := c.ten.ReplayBatch(ids, regen)
				if err == nil {
					break
				}
				var busy *service.BacklogError
				if !errors.As(err, &busy) {
					tr.end(pass)
					return fmt.Errorf("%s: %w", c.role, err)
				}
				c.retries++
				time.Sleep(busy.RetryAfter)
			}
			c.latUs = append(c.latUs, float64(time.Since(issued).Nanoseconds())/1e3)
			c.batches++
			if c.batches%serveMigrateEvery == 0 {
				// Only this client moves its peer's tenant, so reading the
				// tenant's shard here cannot race another migration.
				dst := c.peer.ten.Shard() ^ 1
				d, err := tr.timed("service.migrate", root, func() error { return svc.Migrate(c.peer.role, dst) })
				if err != nil {
					tr.end(pass)
					return fmt.Errorf("migrating %s to shard %d: %w", c.peer.role, dst, err)
				}
				c.migMs = append(c.migMs, float64(d.Nanoseconds())/1e6)
			}
		}
		tr.end(pass)
	}
	return nil
}

// soloLedgers replays, single-threaded through sim.Run, exactly the
// accesses each client issues in a round, at the shard capacity. It also
// returns the replays' CPU time per access, in nanoseconds.
func soloLedgers(clients []*serveClient, capacity int) (map[string]core.Stats, float64, error) {
	out := map[string]core.Stats{}
	var busy time.Duration
	n := 0
	for _, c := range clients {
		issued := make([]core.SuperblockID, 0, servePasses*len(c.tr.Accesses))
		for p := 0; p < servePasses; p++ {
			issued = append(issued, c.tr.Accesses...)
		}
		c0 := cpuTime()
		r, err := sim.Run(&trace.Trace{Name: c.tr.Name, Blocks: c.tr.Blocks, Accesses: issued}, servePolicy, 1, sim.Options{Capacity: capacity})
		if err != nil {
			return nil, 0, err
		}
		busy += cpuTime() - c0
		n += len(issued)
		out[c.role] = r.Stats
	}
	return out, float64(busy.Nanoseconds()) / float64(n), nil
}

// serveGates checks a finished round: every batch and migration went
// through, the service's double-entry ledger closes, and each tenant's
// ledger equals its solo replay. selfTest also shows the ledger gate
// rejecting a corrupted ledger.
func serveGates(tr *tracer, res *result, svc *service.Service, clients []*serveClient, solo map[string]core.Stats, migrations int, checkMs *[]float64, selfTest bool) error {
	for _, c := range clients {
		if c.err != nil {
			return gatef("client failed: %v", c.err)
		}
	}
	if ms := svc.MigrationStats(); ms.Completed != uint64(migrations) || ms.Aborted != 0 {
		return gatef("migration stats %+v, want %d completed and none aborted", ms, migrations)
	}
	d, err := tr.timed("service.check_consistency", 0, svc.CheckConsistency)
	if err != nil {
		return gatef("CheckConsistency: %v", err)
	}
	*checkMs = append(*checkMs, float64(d.Nanoseconds())/1e6)
	if res.counts == nil {
		res.counts = map[string]uint64{}
	}
	for _, c := range clients {
		got := c.ten.Stats()
		if err := gateLedger(c.role, got, solo[c.role]); err != nil {
			return err
		}
		if selfTest && c == clients[0] {
			got.BytesEvicted++
			if err := res.selfTest("one tenant ledger field (bytes evicted) off by one", gateLedger(c.role, got, solo[c.role])); err != nil {
				return err
			}
		}
	}
	return nil
}

// gateLedger requires a tenant's ledger to equal its solo replay on all
// eight engine-backed columns.
func gateLedger(role string, got service.TenantStats, want core.Stats) error {
	if got.Accesses != want.Accesses || got.Hits != want.Hits || got.Misses != want.Misses ||
		got.InsertedBlocks != want.InsertedBlocks || got.InsertedBytes != want.InsertedBytes ||
		got.EvictionInvocations != want.EvictionInvocations ||
		got.BlocksEvicted != want.BlocksEvicted || got.BytesEvicted != want.BytesEvicted {
		return gatef("tenant %s ledger %+v differs from its solo replay %+v", role, got, want)
	}
	return nil
}
