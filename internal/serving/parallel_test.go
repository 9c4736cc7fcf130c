package serving

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
	"valora/internal/registry"
	"valora/internal/sched"
	"valora/internal/simgpu"
	"valora/internal/workload"
)

// RunSharded's acceptance gate: for every configuration, RunSharded is
// bit-identical to Run — reflect.DeepEqual on the whole Report, not a
// tolerance check — across shard counts, seeds, dispatch policies, and
// the managed path. Only partitioned runs (unmanaged, stateless
// dispatch, no store) take a parallel path; the rest must fall back to
// the sequential engine. Traces are regenerated per run (requests
// mutate in place) and clusters are rebuilt per run (dispatch policies
// carry state).

var shardCounts = []int{1, 2, 4, 8}

func checkReportIdentical(t *testing.T, want, got *Report, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: sharded report diverges from sequential\nsequential: %+v\nsharded:    %+v", label, want, got)
	}
}

// TestShardedUnmanagedBitIdentical covers the unmanaged fleet: the
// partitioned fast path (round-robin, stateless) and the sequential
// fallback for policies that read live instance state.
func TestShardedUnmanagedBitIdentical(t *testing.T) {
	model := lmm.QwenVL7B()
	policies := []struct {
		name string
		mk   func() DispatchPolicy
	}{
		{"round-robin", func() DispatchPolicy { return NewRoundRobin() }},
		{"least-loaded", func() DispatchPolicy { return NewLeastLoaded() }},
		{"adapter-affinity", func() DispatchPolicy { return NewAdapterAffinity() }},
		{"tenant-affinity", func() DispatchPolicy { return NewTenantAffinity(nil) }},
	}
	for _, pol := range policies {
		for _, seed := range []int64{7, 51} {
			run := func(shards int) *Report {
				cl, err := NewClusterWithDispatch(4, pol.mk(), swapConstrained(model))
				if err != nil {
					t.Fatal(err)
				}
				trace := skewedSwapTrace(seed)
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got,
					fmt.Sprintf("%s/seed=%d/shards=%d", pol.name, seed, shards))
			}
		}
	}
}

// TestShardedManagedBitIdentical replays the managed engine (admission,
// fair-share and FIFO queueing, deadline shedding, backpressure)
// through RunSharded against Run.
func TestShardedManagedBitIdentical(t *testing.T) {
	for _, fair := range []bool{true, false} {
		for _, seed := range []int64{11, 42} {
			run := func(shards int) *Report {
				cfg := SchedulingConfig{
					Tenants:   tenantClasses(),
					FairShare: fair,
					HighWater: 4,
				}
				cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
				if err != nil {
					t.Fatal(err)
				}
				trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, seed))
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			if want.Shed == 0 {
				t.Fatalf("fair=%v seed=%d: workload never exercises admission shedding", fair, seed)
			}
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got, "managed")
			}
		}
	}
}

// TestShardedManagedLookaheadBitIdentical replays the bounded-lookahead
// engine in its target regime — a saturated managed fleet — through
// RunSharded against Run. Saturation is asserted, not assumed: a trace
// that never backs up the queue would leave the Quantum-epoch path
// untested.
func TestShardedManagedLookaheadBitIdentical(t *testing.T) {
	for _, fair := range []bool{true, false} {
		for _, seed := range []int64{11, 42} {
			run := func(shards int) *Report {
				cfg := SchedulingConfig{
					Tenants:   tenantClasses(),
					FairShare: fair,
					HighWater: 4,
					Lookahead: &LookaheadConfig{Quantum: 50 * time.Millisecond},
				}
				cl, err := NewManagedCluster(4, NewLeastLoaded(), cfg, managedBuild(t))
				if err != nil {
					t.Fatal(err)
				}
				trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 6, seed))
				var rep *Report
				if shards == 0 {
					rep, err = cl.Run(trace)
				} else {
					rep, err = cl.RunSharded(trace, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want := run(0)
			if want.Shed == 0 {
				t.Fatalf("fair=%v seed=%d: workload never saturates the queue", fair, seed)
			}
			for _, shards := range shardCounts {
				got := run(shards)
				checkReportIdentical(t, want, got,
					fmt.Sprintf("lookahead/fair=%v/seed=%d/shards=%d", fair, seed, shards))
			}
		}
	}
}

// TestLookaheadConfigValidation pins the constructor's compatibility
// matrix: lookahead's reservation proof requires a fixed fleet, no
// shared store, and no preemption, so those combinations must be
// rejected at build time rather than diverging at run time.
func TestLookaheadConfigValidation(t *testing.T) {
	la := &LookaheadConfig{}
	base := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 4, Lookahead: la}

	with := base
	with.Autoscale = &AutoscaleConfig{Min: 1, Max: 4}
	if _, err := NewManagedCluster(2, NewLeastLoaded(), with, managedBuild(t)); err == nil {
		t.Fatal("Lookahead+Autoscale must be rejected")
	}

	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 4, model.DefaultRank)
	store := registry.NewStore(registry.Config{
		HostCapacity:    10 * adapters[0].Bytes(),
		RemoteLatency:   5 * time.Millisecond,
		RemoteBandwidth: 2.5e9,
	}, registry.CatalogFromAdapters(adapters, nil))
	with = base
	with.Store = store
	if _, err := NewManagedCluster(2, NewLeastLoaded(), with, managedBuild(t)); err == nil {
		t.Fatal("Lookahead+Store must be rejected")
	}

	preemptBuild := func(int) (Options, error) {
		opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
		if err != nil {
			return Options{}, err
		}
		opts.Preemption = &PreemptionConfig{MaxPreemptions: 2}
		return opts, nil
	}
	if _, err := NewManagedCluster(2, NewLeastLoaded(), base, preemptBuild); err == nil {
		t.Fatal("Lookahead+Preemption must be rejected")
	}

	// The valid configuration applies defaults: Slots from HighWater,
	// a non-zero Quantum.
	cl, err := NewManagedCluster(2, NewLeastLoaded(), base, managedBuild(t))
	if err != nil {
		t.Fatalf("valid lookahead config rejected: %v", err)
	}
	got := cl.sched.Lookahead
	if got.Slots != 4 || got.Quantum <= 0 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if la.Slots != 0 {
		t.Fatal("caller's LookaheadConfig must not be mutated")
	}
}

// TestShardedCoupledConfigsDelegate pins the planner and its
// fallback: only the round-robin fleet is partitioned; state-reading
// dispatch, the managed engines (fair-share and lookahead), preemption,
// autoscaling and the shared registry store couple instances and
// delegate to Run, and RunSharded at every shard count serializes
// byte-identically to Run.
func TestShardedCoupledConfigsDelegate(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 16, model.DefaultRank)
	ab := adapters[0].Bytes()

	unmanaged := func(d func() DispatchPolicy) func() (*Cluster, workload.Trace) {
		return func() (*Cluster, workload.Trace) {
			cl, err := NewClusterWithDispatch(4, d(), swapConstrained(model))
			if err != nil {
				t.Fatal(err)
			}
			return cl, skewedSwapTrace(7)
		}
	}
	managed := func(la *LookaheadConfig) func() (*Cluster, workload.Trace) {
		return func() (*Cluster, workload.Trace) {
			cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 4, Lookahead: la}
			cl, err := NewManagedCluster(4, NewLeastLoaded(), cfg, managedBuild(t))
			if err != nil {
				t.Fatal(err)
			}
			return cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 6, 11))
		}
	}
	cases := []struct {
		name        string
		partitioned bool
		build       func() (*Cluster, workload.Trace)
	}{
		{"round-robin", true, unmanaged(func() DispatchPolicy { return NewRoundRobin() })},
		{"least-loaded", false, unmanaged(func() DispatchPolicy { return NewLeastLoaded() })},
		{"adapter-affinity", false, unmanaged(func() DispatchPolicy { return NewAdapterAffinity() })},
		{"managed-fair-share", false, managed(nil)},
		{"managed-lookahead", false, managed(&LookaheadConfig{Quantum: 50 * time.Millisecond})},
		{"preemption", false, func() (*Cluster, workload.Trace) {
			return preemptCluster(t, 2), adversarialTrace(9, 600)
		}},
		{"autoscale", false, func() (*Cluster, workload.Trace) {
			as := &AutoscaleConfig{Min: 1, Max: 4, HighDepth: 32, LowDepth: 4, Cooldown: time.Second}
			cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 8, Autoscale: as}
			cl, err := NewManagedCluster(1, NewLeastLoaded(), cfg, managedBuild(t))
			if err != nil {
				t.Fatal(err)
			}
			return cl, workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 1, 42))
		}},
		{"registry-store", false, func() (*Cluster, workload.Trace) {
			store := registry.NewStore(registry.Config{
				HostCapacity:    10 * ab,
				RemoteLatency:   5 * time.Millisecond,
				RemoteBandwidth: 2.5e9,
			}, registry.CatalogFromAdapters(adapters, nil))
			build := func(int) (Options, error) {
				opts, err := SystemOptions(SystemVaLoRA, simgpu.A100(), model)
				if err != nil {
					return Options{}, err
				}
				opts.Registry = lora.NewRegistry(adapters...)
				opts.AdapterPoolBytes = 4 * ab
				opts.Store = store
				return opts, nil
			}
			cfg := SchedulingConfig{
				Tenants:           []sched.TenantConfig{{Name: "t", Weight: 1}},
				FairShare:         true,
				HighWater:         3,
				Store:             store,
				PrefetchLookahead: 4,
			}
			cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, build)
			if err != nil {
				t.Fatal(err)
			}
			trace := workload.GenMultiTenant(workload.MultiTenantConfig{
				Duration: 10 * time.Second,
				Seed:     21,
				Tenants: []workload.TenantTraffic{{
					Tenant: "t", Rate: 50,
					NumAdapters: 16, Skew: 0.6, HotSetDriftEvery: 3 * time.Second,
					MinInputTokens: 32, MaxInputTokens: 64, MaxOutputTokens: 2,
				}},
			})
			workload.MarkColdCandidates(trace, 2*time.Second)
			return cl, trace
		}},
	}
	for _, tc := range cases {
		seq, trace := tc.build()
		if got := seq.partitioned(); got != tc.partitioned {
			t.Fatalf("%s: partitioned = %v, want %v", tc.name, got, tc.partitioned)
		}
		rep, err := seq.Run(trace)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		want := marshalReport(t, rep)
		for _, shards := range shardCounts {
			sh, trace := tc.build()
			rep, err := sh.RunSharded(trace, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			if got := marshalReport(t, rep); !bytes.Equal(want, got) {
				t.Fatalf("%s shards=%d: sharded report diverges from sequential\nsequential:\n%s\nsharded:\n%s",
					tc.name, shards, want, got)
			}
		}
	}
}

// TestShardPlannerModes pins each configuration to its planned mode:
// only the unmanaged round-robin fleet is partitioned.
func TestShardPlannerModes(t *testing.T) {
	model := lmm.QwenVL7B()
	unmanaged := func(d DispatchPolicy) *Cluster {
		cl, err := NewClusterWithDispatch(2, d, swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	if !unmanaged(NewRoundRobin()).partitioned() {
		t.Fatal("round-robin: not partitioned, want partitioned")
	}
	if unmanaged(NewLeastLoaded()).partitioned() {
		t.Fatal("least-loaded: partitioned, want delegated to Run")
	}
	cfg := SchedulingConfig{Tenants: tenantClasses(), FairShare: true, HighWater: 8}
	cl, err := NewManagedCluster(2, NewRoundRobin(), cfg, managedBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	if cl.partitioned() {
		t.Fatal("managed round-robin: partitioned, want delegated to Run")
	}
}

// TestRunShardedValidation covers argument handling: zero shards is an
// error; shard counts beyond the fleet clamp instead of failing.
func TestRunShardedValidation(t *testing.T) {
	model := lmm.QwenVL7B()
	cl, err := NewClusterWithDispatch(2, NewRoundRobin(), swapConstrained(model))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunSharded(skewedSwapTrace(3), 0); err == nil {
		t.Fatal("shards=0 must fail")
	}
	if _, err := cl.RunSharded(skewedSwapTrace(3), 64); err != nil {
		t.Fatalf("oversized shard count should clamp, got %v", err)
	}
}
