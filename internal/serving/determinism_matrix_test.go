package serving

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/workload"
)

// The executable determinism matrix: the partitioned engine must
// produce byte-identical serialized Reports across every combination
// of GOMAXPROCS ∈ {1, 2, 8} and shard count ∈ {1, 2, 4, 8}, against
// the sequential reference. GOMAXPROCS is the axis a review tends to
// miss — a scheduler-order dependence that hides at 8 cores can
// surface at 1, and vice versa — and CI runs this test under -race, so
// an unsynchronized access between drain workers (the claim cursor, a
// feed, an instance) fails the job even when the output happens to
// match. The managed engines ride along: they run sequentially under
// RunSharded, and the matrix keeps them GOMAXPROCS-invariant.

var matrixGOMAXPROCS = []int{1, 2, 8}
var matrixShards = []int{1, 2, 4, 8}

// marshalReport serializes a Report canonically (JSON with sorted map
// keys, indented for a readable diff on failure).
func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	return b
}

func runMatrix(t *testing.T, label string, run func(shards int) *Report) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	ref := marshalReport(t, run(0)) // sequential reference at ambient GOMAXPROCS
	for _, gmp := range matrixGOMAXPROCS {
		runtime.GOMAXPROCS(gmp)
		for _, shards := range matrixShards {
			got := marshalReport(t, run(shards))
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s: GOMAXPROCS=%d shards=%d diverges from sequential\nsequential:\n%s\nsharded:\n%s",
					label, gmp, shards, ref, got)
			}
		}
	}
}

// TestDeterminismMatrixUnmanaged drives the partitioned path with a
// round-robin fleet on the skewed swap-constrained trace.
func TestDeterminismMatrixUnmanaged(t *testing.T) {
	model := lmm.QwenVL7B()
	runMatrix(t, "unmanaged/round-robin", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := skewedSwapTrace(23)
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
	})
}

// TestDeterminismMatrixManaged drives the managed engine (admission,
// fair-share queueing, shedding) through the matrix. It has no parallel
// path, so this pins that RunSharded's fallback to Run stays
// byte-identical at every GOMAXPROCS.
func TestDeterminismMatrixManaged(t *testing.T) {
	runMatrix(t, "managed/fair-share", func(shards int) *Report {
		cfg := SchedulingConfig{
			Tenants:   tenantClasses(),
			FairShare: true,
			HighWater: 4,
		}
		cl, err := NewManagedCluster(2, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenMultiTenant(workload.DefaultMultiTenant(6*time.Second, 3, 37))
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
	})
}

// TestDeterminismMatrixManagedLookahead drives the bounded-lookahead
// engine — Quantum epochs and reservation feeds on an 8-instance fleet —
// through the matrix; like the managed engine, it runs inline under
// RunSharded.
func TestDeterminismMatrixManagedLookahead(t *testing.T) {
	runMatrix(t, "managed/lookahead", func(shards int) *Report {
		cfg := SchedulingConfig{
			Tenants:   tenantClasses(),
			FairShare: true,
			HighWater: 4,
			Lookahead: &LookaheadConfig{Quantum: 50 * time.Millisecond},
		}
		cl, err := NewManagedCluster(8, NewLeastLoaded(), cfg, managedBuild(t))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenMultiTenant(workload.DefaultMultiTenant(4*time.Second, 10, 37))
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
	})
}

// TestDeterminismMatrixParallelTrace closes the loop with the
// counter-based generator: a GenStressParallel trace (whose own
// worker-count invariance is pinned in the workload package) replayed
// through the partitioned engine stays bit-identical across the matrix.
func TestDeterminismMatrixParallelTrace(t *testing.T) {
	model := lmm.QwenVL7B()
	cfg := workload.DefaultStress(4000, 19)
	runMatrix(t, "unmanaged/parallel-trace", func(shards int) *Report {
		cl, err := NewClusterWithDispatch(4, NewRoundRobin(), swapConstrained(model))
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.GenStressParallel(cfg, runtime.GOMAXPROCS(0))
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
	})
}
