package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"dynocache/internal/core"
	"dynocache/internal/sim"
	"dynocache/internal/trace"
	"dynocache/internal/workload"
)

// seededTrace synthesizes a Table 1 profile at scale with its seed
// re-seeded from the workload seed.
func seededTrace(name string, scale float64, seed uint64) (*trace.Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p.Seed ^= seed * 0x9E3779B97F4A7C15
	return p.Scaled(scale).Synthesize()
}

func parsePolicies(names []string) ([]core.Policy, error) {
	out := make([]core.Policy, len(names))
	for i, n := range names {
		p, err := core.ParsePolicy(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// metricName makes a policy name usable inside a metric name.
func metricName(policy core.Policy) string {
	return strings.ToLower(strings.ReplaceAll(policy.String(), "/", "-"))
}

func fifoFamily(p core.Policy) bool {
	return p.Kind == core.PolicyFlush || p.Kind == core.PolicyUnits || p.Kind == core.PolicyFine
}

// The policy-replay workload: two large Windows traces at full scale,
// the policy set that shares the core engine (compacting-LRU is left to
// paper-report's ablations: one replay of it takes most of a minute), a
// light and a heavy pressure, and one streamed replay per trace.
var (
	replayTraces    = []string{"word", "iexplore"}
	replayPolicies  = []string{"fifo", "8-unit", "lru", "generational/8", "adaptive", "preemptive"}
	replayPressures = []int{2, 10}
)

// replayKey names one configuration of one trace.
type replayKey struct {
	trace    string
	policy   core.Policy
	pressure int
}

func (k replayKey) String() string {
	return fmt.Sprintf("%s.%s.p%d", k.trace, metricName(k.policy), k.pressure)
}

// runPolicyReplay times single-config replays, where core and the sim
// replay kernels do the work and the multi-config kernel does none. A
// round synthesizes and encodes the traces afresh, replays every
// configuration once, and streams each trace once at the light pressure.
func runPolicyReplay(env *runEnv) (*result, error) {
	policies, err := parsePolicies(replayPolicies)
	if err != nil {
		return nil, err
	}
	fifo := core.Policy{Kind: core.PolicyFine}
	res := &result{notes: map[string]any{
		"traces": replayTraces, "policies": replayPolicies, "pressures": replayPressures,
		"streamed": "fifo at p2 on each trace", "operation": "one replay",
	}}
	var (
		setups, decodeNs, roundS, simNs []float64
		rate                            = map[int][]float64{}    // pressure -> accesses per second, per round
		nsPer                           = map[string][]float64{} // policy.pN -> ns per access, per traced round
		rounds                          traceRounds
		first                           map[replayKey]core.Stats // round 0's stats, the repeat reference
		traces                          []*trace.Trace
		encoded                         [][]byte
	)
	b := newBudget(env.seconds)
	for env.more(b) {
		start := time.Now()
		tr := env.roundTracer(b.rounds)
		d, err := tr.cpuTimed("workload.synthesize", 0, func() error {
			traces, encoded = nil, nil
			for _, name := range replayTraces {
				t, err := seededTrace(name, 1, env.seed)
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				if err := t.Write(&buf); err != nil {
					return err
				}
				traces, encoded = append(traces, t), append(encoded, buf.Bytes())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())

		root := tr.begin("policy-replay", 0)
		stats := map[replayKey]core.Stats{}
		busy := map[int]time.Duration{}
		work := map[int]int{}
		cfgBusy := map[string]time.Duration{}
		cfgWork := map[string]int{}
		var runBusy time.Duration
		runWork := 0
		for ti, t := range traces {
			for _, pr := range replayPressures {
				for _, pol := range policies {
					var r *sim.Result
					d, err := tr.cpuTimed("sim.run", root, func() (err error) {
						r, err = sim.Run(t, pol, pr, sim.Options{})
						return err
					})
					res.attempted++
					if err != nil {
						res.failed++
						return res, err
					}
					k := replayKey{t.Name, pol, pr}
					stats[k] = r.Stats
					busy[pr] += d
					work[pr] += len(t.Accesses)
					ck := fmt.Sprintf("%s.p%d", metricName(pol), pr)
					cfgBusy[ck] += d
					cfgWork[ck] += len(t.Accesses)
					runBusy += d
					runWork += len(t.Accesses)
				}
			}
			var r *sim.Result
			d, err := tr.cpuTimed("sim.run_stream", root, func() error {
				st, err := trace.NewStream(bytes.NewReader(encoded[ti]))
				if err != nil {
					return err
				}
				r, err = sim.RunStream(st, fifo, 2, sim.Options{})
				return err
			})
			res.attempted++
			if err != nil {
				res.failed++
				return res, err
			}
			busy[2] += d
			work[2] += len(t.Accesses)
			if err := gateStats("RunStream "+replayKey{t.Name, fifo, 2}.String(), r.Stats, stats[replayKey{t.Name, fifo, 2}]); err != nil {
				return res, err
			}
		}
		rounds.add(tr, root, tr.end(root))
		var total time.Duration
		for _, pr := range replayPressures {
			rate[pr] = append(rate[pr], float64(work[pr])/busy[pr].Seconds())
			total += busy[pr]
		}
		roundS = append(roundS, total.Seconds())
		if tr.keep {
			// Outside the root span, so the traced rounds' root does the
			// same work as the untraced rounds' it is compared with.
			for _, enc := range encoded {
				ns, err := decodeNsPerAccess(tr, 0, enc)
				if err != nil {
					return res, err
				}
				decodeNs = append(decodeNs, ns)
			}
			simNs = append(simNs, float64(runBusy.Nanoseconds())/float64(runWork))
			for ck, d := range cfgBusy {
				nsPer[ck] = append(nsPer[ck], float64(d.Nanoseconds())/float64(cfgWork[ck]))
			}
		}
		if first == nil {
			first = stats
		} else {
			for k, st := range stats {
				if err := gateStats(fmt.Sprintf("round %d %s", b.rounds, k), st, first[k]); err != nil {
					return res, err
				}
			}
		}
		b.done(time.Since(start))
	}
	heap := retainedHeapMB()

	if err := replayGates(res, traces, encoded, policies, first); err != nil {
		return res, err
	}
	var sum core.Stats
	for k, st := range first {
		res.addCounts(k.String(), &st)
		addStats(&sum, &st)
	}
	k := replayKey{traces[0].Name, fifo, 2}
	corrupt := first[k]
	corrupt.BytesEvicted++
	if err := res.selfTest("one simulated count (bytes evicted) off by one", gateStats(k.String(), corrupt, first[k])); err != nil {
		return res, err
	}

	if !env.traced {
		res.median("setup_s", setups, "s")
		res.add("retained_heap_mb", heap, "MB", 1)
		res.median("round_s", roundS, "s")
		for _, pr := range replayPressures {
			res.median(fmt.Sprintf("replay_acc_per_s.p%d", pr), rate[pr], "1/s")
		}
		return res, nil
	}
	res.median("workload.synthesize_s", setups, "s")
	res.median("sim.ns_per_access", simNs, "ns")
	res.coreMetrics(&sum)
	for _, pr := range replayPressures {
		for _, pol := range policies {
			ck := fmt.Sprintf("%s.p%d", metricName(pol), pr)
			res.median("sim.ns_per_access."+ck, nsPer[ck], "ns")
			var cs core.Stats
			for _, t := range traces {
				st := first[replayKey{t.Name, pol, pr}]
				addStats(&cs, &st)
			}
			res.add("core.miss_rate."+ck, float64(cs.Misses)/float64(cs.Accesses), "ratio", 1)
			res.add("core.evictions."+ck, float64(cs.BlocksEvicted), "count", 1)
		}
	}
	res.median("trace.stream_ns_per_access", decodeNs, "ns")
	return res, rounds.report(res)
}

// replayGates checks the timed replays against independent paths: the
// multi-config kernel and the streamed replay for the FIFO family, and
// the portable interface loop (ForceGeneric) for every policy.
func replayGates(res *result, traces []*trace.Trace, encoded [][]byte, policies []core.Policy, want map[replayKey]core.Stats) error {
	for ti, tr := range traces {
		var cfgs []sim.SweepConfig
		for _, pr := range replayPressures {
			for _, pol := range policies {
				k := replayKey{tr.Name, pol, pr}
				generic, err := sim.Run(tr, pol, pr, sim.Options{ForceGeneric: true})
				if err != nil {
					return err
				}
				if err := gateStats("ForceGeneric "+k.String(), generic.Stats, want[k]); err != nil {
					return err
				}
				if !fifoFamily(pol) {
					continue
				}
				cfgs = append(cfgs, sim.SweepConfig{Policy: pol, Pressure: pr})
				st, err := trace.NewStream(bytes.NewReader(encoded[ti]))
				if err != nil {
					return err
				}
				streamed, err := sim.RunStream(st, pol, pr, sim.Options{})
				if err != nil {
					return err
				}
				if err := gateStats("RunStream "+k.String(), streamed.Stats, want[k]); err != nil {
					return err
				}
			}
		}
		multi, err := sim.RunConfigs(tr, cfgs, sim.Options{})
		if err != nil {
			return err
		}
		for i, c := range cfgs {
			k := replayKey{tr.Name, c.Policy, c.Pressure}
			if err := gateStats("RunConfigs "+k.String(), multi[i].Stats, want[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeNsPerAccess times the trace layer alone: decoding every access
// of an encoded trace through a Stream, with no replay behind it.
func decodeNsPerAccess(tr *tracer, parent int, encoded []byte) (float64, error) {
	n := 0
	d, err := tr.cpuTimed("trace.stream", parent, func() error {
		st, err := trace.NewStream(bytes.NewReader(encoded))
		if err != nil {
			return err
		}
		buf := trace.GetAccessBuf()
		defer trace.PutAccessBuf(buf)
		for {
			k, err := st.Next(buf)
			n += k
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("decoded an empty trace")
	}
	return float64(d.Nanoseconds()) / float64(n), nil
}

// The verified-replay workload: small traces, because the verification
// wall costs hundreds of times an unverified replay.
var (
	verifiedTraces   = []string{"vortex", "perlbmk"}
	verifiedScale    = 0.05
	verifiedPolicies = []string{"fifo", "8-unit", "lru"}
	verifiedPressure = 4
)

// runVerifiedReplay times sim.Run with Verify: the check package's
// invariant wall and oracle differ are the only layer doing real work.
func runVerifiedReplay(env *runEnv) (*result, error) {
	policies, err := parsePolicies(verifiedPolicies)
	if err != nil {
		return nil, err
	}
	res := &result{notes: map[string]any{
		"traces": verifiedTraces, "scale": verifiedScale, "policies": verifiedPolicies,
		"pressure": verifiedPressure, "operation": "one replay",
	}}
	var (
		setups, roundS, rates, simNs []float64
		nsPer, ratio                 = map[string][]float64{}, map[string][]float64{}
		rounds                       traceRounds
		first                        map[replayKey]core.Stats
		traces                       []*trace.Trace
	)
	b := newBudget(env.seconds)
	for env.more(b) {
		start := time.Now()
		tr := env.roundTracer(b.rounds)
		d, err := tr.cpuTimed("workload.synthesize", 0, func() error {
			traces = nil
			for _, name := range verifiedTraces {
				t, err := seededTrace(name, verifiedScale, env.seed)
				if err != nil {
					return err
				}
				traces = append(traces, t)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())

		root := tr.begin("verified-replay", 0)
		stats := map[replayKey]core.Stats{}
		var busy time.Duration
		work := 0
		verified, accesses := map[string]time.Duration{}, map[string]int{}
		for _, t := range traces {
			for _, pol := range policies {
				var r *sim.Result
				d, err := tr.cpuTimed("check.verified_run", root, func() (err error) {
					r, err = sim.Run(t, pol, verifiedPressure, sim.Options{Verify: true})
					return err
				})
				res.attempted++
				if err != nil {
					res.failed++
					return res, err
				}
				stats[replayKey{t.Name, pol, verifiedPressure}] = r.Stats
				busy += d
				work += len(t.Accesses)
				name := metricName(pol)
				verified[name] += d
				accesses[name] += len(t.Accesses)
			}
		}
		rounds.add(tr, root, tr.end(root))
		roundS = append(roundS, busy.Seconds())
		rates = append(rates, float64(work)/busy.Seconds())
		if tr.keep {
			// The unverified replays run outside the root span, so the
			// traced rounds' root does the same work as the untraced ones'.
			plain := map[string]time.Duration{}
			var plainBusy time.Duration
			for _, t := range traces {
				for _, pol := range policies {
					d, err := tr.cpuTimed("sim.run", 0, func() error {
						_, err := sim.Run(t, pol, verifiedPressure, sim.Options{})
						return err
					})
					if err != nil {
						return res, err
					}
					plain[metricName(pol)] += d
					plainBusy += d
				}
			}
			simNs = append(simNs, float64(plainBusy.Nanoseconds())/float64(work))
			for name, d := range verified {
				nsPer[name] = append(nsPer[name], float64(d.Nanoseconds())/float64(accesses[name]))
				ratio[name] = append(ratio[name], d.Seconds()/plain[name].Seconds())
			}
		}
		if first == nil {
			first = stats
		} else {
			for k, st := range stats {
				if err := gateStats(fmt.Sprintf("round %d %s", b.rounds, k), st, first[k]); err != nil {
					return res, err
				}
			}
		}
		b.done(time.Since(start))
	}
	heap := retainedHeapMB()

	// The gate: verification must not change what the replay computes.
	var sum core.Stats
	for _, tr := range traces {
		for _, pol := range policies {
			k := replayKey{tr.Name, pol, verifiedPressure}
			plain, err := sim.Run(tr, pol, verifiedPressure, sim.Options{})
			if err != nil {
				return res, err
			}
			if err := gateStats("verified "+k.String(), first[k], plain.Stats); err != nil {
				return res, err
			}
			if k.policy == policies[0] && tr == traces[0] {
				corrupt := first[k]
				corrupt.Misses++
				if err := res.selfTest("one simulated count (misses) off by one", gateStats("verified "+k.String(), corrupt, plain.Stats)); err != nil {
					return res, err
				}
			}
			st := first[k]
			res.addCounts(k.String(), &st)
			addStats(&sum, &st)
		}
	}

	if !env.traced {
		res.median("setup_s", setups, "s")
		res.add("retained_heap_mb", heap, "MB", 1)
		res.median("round_s", roundS, "s")
		res.median("verified_acc_per_s", rates, "1/s")
		return res, nil
	}
	res.median("workload.synthesize_s", setups, "s")
	res.median("sim.ns_per_access", simNs, "ns")
	res.coreMetrics(&sum)
	for _, pol := range policies {
		name := metricName(pol)
		res.median("check.ns_per_access."+name, nsPer[name], "ns")
		res.median("check.overhead_ratio."+name, ratio[name], "ratio")
	}
	return res, rounds.report(res)
}
