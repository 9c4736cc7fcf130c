package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// simWorkload is one replay workload: setup generates its trace from the
// seed and builds a fresh cluster (and registry store, if any); run
// replays the trace on it. A non-nil probes installs the timing
// wrappers.
type simWorkload struct {
	name   string
	params map[string]any
	setup  func(seed int64, p *probes) (*simSetup, error)
	run    func(s *simSetup) (*serving.Report, error)
}

// simSetup is one ready-to-replay instance of a workload.
type simSetup struct {
	cluster *serving.Cluster
	store   *registry.Store // nil when adapters are host-resident
	trace   workload.Trace
	gen     time.Duration // trace generation share of the set-up time
}

// genTrace times trace generation.
func genTrace(gen func() workload.Trace) (workload.Trace, time.Duration) {
	start := time.Now()
	tr := gen()
	return tr, time.Since(start)
}

// newCluster builds a cluster through the wrappers when p is non-nil.
func newCluster(n int, dispatch serving.DispatchPolicy, sc *serving.SchedulingConfig, p *probes,
	build func() (serving.Options, error)) (*serving.Cluster, error) {
	b := func(int) (serving.Options, error) {
		opts, err := build()
		if err != nil || p == nil {
			return opts, err
		}
		return p.wrap(opts), nil
	}
	if p != nil {
		var c *layerCounter
		dispatch, c = wrapDispatch(dispatch)
		p.dispatches = append(p.dispatches, c)
	}
	if sc == nil {
		return serving.NewClusterWithDispatch(n, dispatch, b)
	}
	return serving.NewManagedCluster(n, dispatch, *sc, b)
}

// Workload sizes. Rates sit below the fleets' capacity so the virtual
// latencies describe a serving operating point, not backlog drain.
const (
	steadyRequests  = 500_000
	steadyInstances = 4
	steadyRate      = 440 // ≈0.8 of the 4-instance fleet's ≈550 req/s capacity
	// stressLatencySampleCap matches the million-requests experiment.
	stressLatencySampleCap = 1 << 20

	tenantInstances = 4
	tenantDuration  = 1800 * time.Second
	tenantScale     = 1.6 // DefaultMultiTenant rates ×1.6 for the whole fleet

	fleetFamilies  = 50
	fleetPerFamily = 40
	fleetSweepLen  = 4
	fleetInstances = 4
	fleetDuration  = 7200 * time.Second
	fleetRate      = 1 // sweep starts per second, ≈4 req/s: virtual TTFT p99 ≈72 ms against p50 ≈48 ms, so little queueing
)

func a100() *simgpu.GPU { return simgpu.A100() }

// replaySteady is the stress-trace shape on round-robin VaLoRA instances,
// replayed through the partitioned sharded engine.
func replaySteady() simWorkload {
	shards := runtime.GOMAXPROCS(0)
	return simWorkload{
		name: "replay-steady",
		params: map[string]any{
			"requests": steadyRequests, "rate": steadyRate, "instances": steadyInstances,
			"adapters": 64, "skew": 0.5, "dispatch": "round-robin", "shards": shards,
			"latency_sample_cap": stressLatencySampleCap,
		},
		setup: func(seed int64, p *probes) (*simSetup, error) {
			tr, gen := genTrace(func() workload.Trace { return workload.GenStress(steadyStress(steadyRequests, seed)) })
			cl, err := newCluster(steadyInstances, serving.NewRoundRobin(), nil, p, steadyOptions)
			if err != nil {
				return nil, err
			}
			return &simSetup{cluster: cl, trace: tr, gen: gen}, nil
		},
		run: func(s *simSetup) (*serving.Report, error) { return s.cluster.RunSharded(s.trace, shards) },
	}
}

func steadyStress(n int, seed int64) workload.StressConfig {
	cfg := workload.DefaultStress(n, seed)
	cfg.Rate = steadyRate
	return cfg
}

func steadyOptions() (serving.Options, error) {
	opts, err := serving.SystemOptions(serving.SystemVaLoRA, a100(), lmm.QwenVL7B())
	if err != nil {
		return serving.Options{}, err
	}
	opts.LatencySampleCap = stressLatencySampleCap
	return opts, nil
}

// checkSharded compares the sharded replay of a short prefix of the
// replay-steady trace with the sequential engine's; the reports must be
// identical.
func checkSharded(seed int64) error {
	const prefix = 50_000
	var reps [2]*serving.Report
	for i := range reps {
		cl, err := newCluster(steadyInstances, serving.NewRoundRobin(), nil, nil, steadyOptions)
		if err != nil {
			return err
		}
		// A run mutates its trace, so each engine gets its own copy. The
		// copy drops the rest of the trace, and the collection before
		// each generation keeps two full traces from being live at once,
		// so this check does not set the run's peak RSS.
		debug.FreeOSMemory()
		tr := append(workload.Trace(nil), workload.GenStress(steadyStress(steadyRequests, seed))[:prefix]...)
		if i == 0 {
			reps[i], err = cl.Run(tr)
		} else {
			reps[i], err = cl.RunSharded(tr, runtime.GOMAXPROCS(0))
		}
		if err != nil {
			return err
		}
	}
	if reportDigest(reps[0]) != reportDigest(reps[1]) {
		return fmt.Errorf("sharded replay of a %d-request prefix differs from Cluster.Run", prefix)
	}
	return nil
}

// tenantSLO is three tenant classes with drifting hot sets over a
// whole-blob registry smaller than the adapter universe, fair-share
// admission and preemption with deadline credit.
func tenantSLO() simWorkload {
	// Widened adapter ranges: realtime, interactive and batch own
	// disjoint ranges whose hot sets drift at different paces.
	tenants := []string{"realtime", "interactive", "batch"} // DefaultMultiTenant's order
	ranges := []struct{ n, offset int }{{32, 0}, {48, 32}, {96, 80}}
	drift := []time.Duration{5 * time.Second, 8 * time.Second, 3 * time.Second}
	const universe, hostSlots, poolSlots = 176, 64, 16
	return simWorkload{
		name: "tenant-slo",
		params: map[string]any{
			"instances": tenantInstances, "duration_s": tenantDuration.Seconds(), "scale": tenantScale,
			"adapters": universe, "host_slots": hostSlots, "pool_slots": poolSlots,
			"admit_cap": 48, "high_water": 192, "prefetch_lookahead": 4, "dispatch": "least-loaded",
		},
		setup: func(seed int64, p *probes) (*simSetup, error) {
			model := lmm.QwenVL7B()
			tr, gen := genTrace(func() workload.Trace {
				cfg := workload.DefaultMultiTenant(tenantDuration, tenantScale, seed)
				for i := range cfg.Tenants {
					cfg.Tenants[i].NumAdapters = ranges[i].n
					cfg.Tenants[i].AdapterOffset = ranges[i].offset
					cfg.Tenants[i].HotSetDriftEvery = drift[i]
				}
				tr := workload.GenMultiTenant(cfg)
				workload.MarkColdCandidates(tr, 2*time.Second)
				return tr
			})
			adapters := lora.MakeUniformAdapters(model, universe, model.DefaultRank)
			ab := adapters[0].Bytes()
			tenantOf := func(id int) string {
				for i, r := range ranges {
					if id < r.offset+r.n {
						return tenants[i]
					}
				}
				return tenants[len(tenants)-1]
			}
			store := registry.NewStore(registry.Config{
				HostCapacity:    hostSlots * ab,
				RemoteLatency:   5 * time.Millisecond,
				RemoteBandwidth: 2.5e9,
			}, registry.CatalogFromAdapters(adapters, tenantOf))
			for i, slots := range []int64{14, 12, 4} {
				if err := store.SetQuota(tenants[i], registry.TenantQuota{GuaranteedBytes: slots * ab, BurstBytes: 4 * ab}); err != nil {
					return nil, err
				}
			}
			sc := serving.SchedulingConfig{
				Tenants:           workload.DefaultTenantClasses(),
				FairShare:         true,
				HighWater:         192,
				EstimateService:   serving.ServiceFloor(a100(), model),
				Store:             store,
				PrefetchLookahead: 4,
			}
			cl, err := newCluster(tenantInstances, serving.NewLeastLoaded(), &sc, p, func() (serving.Options, error) {
				opts, err := serving.SystemOptions(serving.SystemVaLoRA, a100(), model)
				if err != nil {
					return serving.Options{}, err
				}
				pol := sched.NewVaLoRAPolicy()
				pol.Preempt, pol.DeadlineCredit = true, true
				opts.Policy = pol
				opts.AdmitCap = 48
				opts.Preemption = &serving.PreemptionConfig{MaxPreemptions: 2}
				opts.Registry = lora.NewRegistry(adapters...)
				opts.AdapterPoolBytes = poolSlots * ab
				opts.Store = store
				return opts, nil
			})
			if err != nil {
				return nil, err
			}
			return &simSetup{cluster: cl, store: store, trace: tr, gen: gen}, nil
		},
		run: func(s *simSetup) (*serving.Report, error) { return s.cluster.Run(s.trace) },
	}
}

// fleetSweep is Power-LLaVA-style inspection sweeps over adapter
// families, pulled through a chunked registry ~10x smaller than the
// adapter universe with replicated fair-queued links.
func fleetSweep() simWorkload {
	const (
		sharedNum, sharedDen = 5, 8
		chunkDivisor         = 32
		hostAdapters         = fleetFamilies * fleetPerFamily / 10
		poolSlots            = 8
		replicas             = 3
	)
	tenants := []string{"inspect-a", "inspect-b"}
	return simWorkload{
		name: "fleet-sweep",
		params: map[string]any{
			"families": fleetFamilies, "per_family": fleetPerFamily, "sweep_len": fleetSweepLen,
			"sweep_rate": fleetRate, "duration_s": fleetDuration.Seconds(), "instances": fleetInstances,
			"host_adapters": hostAdapters, "shared_fraction": float64(sharedNum) / sharedDen,
			"chunk_divisor": chunkDivisor, "replicas": replicas, "family_warm": 2, "dispatch": "least-loaded",
		},
		setup: func(seed int64, p *probes) (*simSetup, error) {
			model := lmm.QwenVL7B()
			fcfg := workload.DefaultFleet(fleetFamilies, fleetPerFamily, fleetRate, fleetDuration, seed)
			fcfg.Tenants = tenants
			fcfg.SweepLen = fleetSweepLen
			tr, gen := genTrace(func() workload.Trace {
				tr := workload.GenFleet(fcfg)
				workload.MarkColdCandidates(tr, 2*time.Second)
				return tr
			})
			adapters := lora.MakeUniformAdapters(model, fcfg.AdapterCount(), model.DefaultRank)
			ab := adapters[0].Bytes()
			familyOf := func(id int) (string, int64) { return fcfg.FamilyOf(id), ab * sharedNum / sharedDen }
			store := registry.NewStore(registry.Config{
				HostCapacity:    hostAdapters * ab,
				RemoteLatency:   5 * time.Millisecond,
				RemoteBandwidth: 2.5e9,
				ChunkSize:       ab / chunkDivisor,
				Replicas:        replicas,
				LinkWeights:     map[string]float64{"inspect-a": 2, "inspect-b": 1},
			}, registry.CatalogFromFamilies(adapters, fcfg.TenantOf, familyOf))
			sc := serving.SchedulingConfig{
				Tenants:           []sched.TenantConfig{{Name: "inspect-a", Weight: 2}, {Name: "inspect-b", Weight: 1}},
				FairShare:         true,
				HighWater:         4,
				Store:             store,
				PrefetchLookahead: 4,
				FamilyWarm:        2,
			}
			cl, err := newCluster(fleetInstances, serving.NewLeastLoaded(), &sc, p, func() (serving.Options, error) {
				opts, err := serving.SystemOptions(serving.SystemVaLoRA, a100(), model)
				if err != nil {
					return serving.Options{}, err
				}
				opts.Registry = lora.NewRegistry(adapters...)
				opts.AdapterPoolBytes = poolSlots * ab
				opts.Store = store
				return opts, nil
			})
			if err != nil {
				return nil, err
			}
			return &simSetup{cluster: cl, store: store, trace: tr, gen: gen}, nil
		},
		run: func(s *simSetup) (*serving.Report, error) { return s.cluster.Run(s.trace) },
	}
}
