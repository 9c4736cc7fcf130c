package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/workload"
)

// ParallelManaged is the saturated-managed-admission benchmark: the
// multi-tenant trace scaled far past the fleet's capacity, replayed
// through (a) the classic managed engine, which may revise placement
// after every instance step, and (b) the bounded-lookahead engine,
// which places only at epoch barriers. Both run sequentially (Run);
// the two engines implement different admission semantics, so their
// wall-time ratio compares semantics, not a parallel speedup, and
// their virtual results differ by design. Each engine's replays must be
// bit-identical across repeats. One record per engine is appended to
// the BENCH_serving.json trajectory.

// parallelManagedFleet reports the fixed fleet size of the saturated
// runs.
func (s *Suite) parallelManagedFleet() int {
	if s.Quick {
		return 4
	}
	return 16
}

// parallelManagedScale is the offered-load multiplier on the
// multi-tenant arrival rates: a burst-overload regime (offered load
// more than an order of magnitude past the 16-instance fleet's
// capacity, ~1.3M arrivals over the 60s trace) that keeps the
// fair-share queue non-empty for essentially the whole replay, so
// admission — not instance stepping — is what the simulator spends its
// wall-clock on, and most arrivals are shed.
func (s *Suite) parallelManagedScale() float64 {
	if s.Quick {
		return 30
	}
	return 300
}

func (s *Suite) parallelManagedRepeats() int {
	if s.Quick {
		return 2
	}
	return 3
}

func (s *Suite) ParallelManaged() (*Table, error) {
	model := lmm.QwenVL7B()
	fleet := s.parallelManagedFleet()
	scale := s.parallelManagedScale()
	duration := s.traceDuration()
	repeats := s.parallelManagedRepeats()
	// The epoch quantum is the placement-revision granularity the
	// lookahead engine trades for coarse epochs; 200ms keeps barrier
	// overhead well below the serving work between barriers on this
	// trace (the sensitivity is roughly linear in 1/Quantum).
	quantum := 200 * time.Millisecond

	build := func(int) (serving.Options, error) {
		return serving.SystemOptions(serving.SystemVaLoRA, s.GPU, model)
	}
	baseCfg := serving.SchedulingConfig{
		Tenants:         workload.DefaultTenantClasses(),
		FairShare:       true,
		HighWater:       4,
		EstimateService: serving.ServiceFloor(s.GPU, model),
	}

	// One trace for the whole experiment (runtime request state reset
	// between replays, like the stress sweep): both engines replay
	// literally the same arrivals.
	trace := workload.GenMultiTenant(workload.DefaultMultiTenant(duration, scale, s.Seed))
	n := len(trace)

	// run replays the trace repeats times on a fresh cluster each
	// time, verifying the replays are bit-identical and request
	// conservation holds, and returns the report plus the median wall
	// time.
	run := func(lookahead bool) (*serving.Report, time.Duration, error) {
		cfg := baseCfg
		if lookahead {
			// Slots is sized to the ~17 requests a saturated instance
			// serves per 200ms epoch; leaving it at the HighWater default
			// would cap admission far below instance capacity.
			cfg.Lookahead = &serving.LookaheadConfig{Quantum: quantum, Slots: 16}
		}
		var rep *serving.Report
		walls := make([]time.Duration, 0, repeats)
		for r := 0; r < repeats; r++ {
			cl, err := serving.NewManagedCluster(fleet, serving.NewLeastLoaded(), cfg, build)
			if err != nil {
				return nil, 0, err
			}
			trace.ResetRuntime()
			start := time.Now()
			got, err := cl.Run(trace)
			if err != nil {
				return nil, 0, err
			}
			walls = append(walls, time.Since(start))
			if got.Completed+got.Rejected+got.Shed != n {
				return nil, 0, fmt.Errorf("bench: parallel-managed replay lost requests: %d+%d+%d of %d",
					got.Completed, got.Rejected, got.Shed, n)
			}
			if rep == nil {
				rep = got
			} else if !reflect.DeepEqual(rep, got) {
				return nil, 0, fmt.Errorf("bench: parallel-managed replay diverged across repeats (lookahead=%v)", lookahead)
			}
		}
		return rep, medianWall(walls), nil
	}

	t := &Table{
		ID: "parallel-managed",
		Title: fmt.Sprintf("Saturated managed admission: multi-tenant trace at %.0fx scale, %d instances (median of %d)",
			scale, fleet, repeats),
		Paper: "beyond-paper engineering: bounded-lookahead admission places requests only at epoch barriers instead of after every instance step, trading placement-revision granularity for fewer admission passes on a saturated fleet",
		Columns: []string{"engine", "wall med (s)", "arrival req/s", "served req/s",
			"completed", "shed", "realtime SLO", "Jain"},
	}

	record := func(rep *serving.Report, mode string, wall time.Duration) error {
		slo := make(map[string]float64, len(rep.Tenants))
		for _, tr := range rep.Tenants {
			slo[tr.Name] = tr.SLOAttainment()
		}
		rec := StressRecord{
			Experiment:   "parallel-managed",
			Timestamp:    time.Now().UTC(),
			Requests:     n,
			Instances:    fleet,
			Dispatch:     "least-loaded",
			Quick:        s.Quick,
			Repeats:      repeats,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			WallSeconds:  wall.Seconds(),
			SimRPS:       float64(n) / wall.Seconds(),
			Completed:    rep.Completed,
			Rejected:     rep.Rejected,
			VirtualRPS:   rep.Throughput,
			VirtualP50MS: rep.E2E.P50,
			VirtualP99MS: rep.E2E.P99,
			Mode:         mode,
			TenantSLO:    slo,
			Jain:         rep.FairnessIndex,
			Shed:         rep.Shed,
		}
		if err := s.appendStressRecord(rec); err != nil {
			return err
		}
		engine := "classic"
		if mode != "fair-share" {
			engine = "lookahead"
		}
		t.AddRow(engine, f2(rec.WallSeconds), fmt.Sprintf("%.0f", rec.SimRPS),
			fmt.Sprintf("%.0f", float64(rep.Completed)/wall.Seconds()),
			fmt.Sprintf("%d", rep.Completed), fmt.Sprintf("%d", rep.Shed),
			pct(slo["realtime"]), f2(rep.FairnessIndex))
		return nil
	}

	classicRep, classicWall, err := run(false)
	if err != nil {
		return nil, err
	}
	if classicRep.Shed == 0 {
		return nil, fmt.Errorf("bench: parallel-managed trace is not saturating the cluster (no shed requests); raise the scale")
	}
	if err := record(classicRep, "fair-share", classicWall); err != nil {
		return nil, err
	}
	lookaheadRep, lookaheadWall, err := run(true)
	if err != nil {
		return nil, err
	}
	if err := record(lookaheadRep, "fair-share+lookahead", lookaheadWall); err != nil {
		return nil, err
	}

	t.Notes = fmt.Sprintf("arrival req/s counts every arrival, most of which admission sheds; served req/s counts completions only. "+
		"Classic/lookahead wall ratio %.2fx (GOMAXPROCS=%d) reflects the admission-semantics difference between the engines, not a speedup: "+
		"both run sequentially and complete different request sets. Each engine's repeats verified bit-identical. Appended one record per engine to %s.",
		classicWall.Seconds()/lookaheadWall.Seconds(), runtime.GOMAXPROCS(0), BenchServingFile)
	return t, nil
}

// spotCheckSharded replays a freshly built run of a shard-aware
// experiment through RunSharded at Suite.Shards and verifies the
// report is bit-identical to the sequential one — the -shards
// spot-check contract. Callers gate on s.Shards > 0 and hand over a
// fresh cluster plus a fresh (or runtime-reset) trace, since requests
// carry runtime state.
func (s *Suite) spotCheckSharded(id string, seq *serving.Report, cl *serving.Cluster, trace workload.Trace) error {
	rep, err := cl.RunSharded(trace, s.Shards)
	if err != nil {
		return fmt.Errorf("bench: %s sharded spot check: %w", id, err)
	}
	if !reflect.DeepEqual(seq, rep) {
		return fmt.Errorf("bench: %s sharded replay (shards=%d) diverged from the sequential report", id, s.Shards)
	}
	return nil
}

// medianWall returns the median of a small slice of wall times
// without disturbing the caller's ordering.
func medianWall(walls []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), walls...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
