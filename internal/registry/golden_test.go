package registry

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

var updateOps = flag.Bool("update-ops", false, "rewrite testdata/golden_ops.txt from the current store")

// goldenCase is one store shape the golden op sequences run against.
type goldenCase struct {
	name string
	// chunkDiv sets ChunkSize to a rank-64 adapter's bytes / chunkDiv;
	// 0 keeps the whole-blob store.
	chunkDiv    int
	replicas    int
	weights     bool
	quotas      bool
	pinCap      float64 // MaxPinnedFraction (0 = default valve)
	maxInflight int
}

var goldenCases = []goldenCase{
	{name: "blob"},
	{name: "blob-quota", quotas: true, pinCap: -1},
	{name: "blob-quota-valve", quotas: true},
	{name: "blob-replicas-weights", replicas: 3, weights: true, quotas: true, pinCap: -1},
	{name: "blob-inflight2", maxInflight: 2, quotas: true},
	{name: "chunk", chunkDiv: 4},
	{name: "chunk-quota", chunkDiv: 6, quotas: true, pinCap: -1},
	{name: "chunk-replicas-weights", chunkDiv: 8, replicas: 3, weights: true, quotas: true, pinCap: -1},
	{name: "chunk-whole", chunkDiv: 1, quotas: true},
	{name: "chunk-fine-inflight3", chunkDiv: 12, replicas: 2, maxInflight: 3, weights: true},
}

// goldenSeeds are the op-sequence seeds replayed against every case.
var goldenSeeds = []int64{1, 2, 3}

// runGoldenOps replays one seeded random op sequence against a store
// of the given shape and writes every observable result to w: each
// Demand/Prefetch/PrefetchFamily/HostResident answer and drain time,
// then the final Stats and HostUsed. Clocks only move forward (the
// serving engine never calls the store with a stale clock); Advance
// also gets stale times, which must be no-ops.
func runGoldenOps(w *bytes.Buffer, gc goldenCase, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(gc.name))))
	model := lmm.QwenVL7B()
	unit := model.AdapterBytes(16)
	ranks := []int{16, 32, 64, 128}
	tenants := []string{"a", "b", "c", ""}

	fams := 2 + rng.Intn(4)
	perFam := 1 + rng.Intn(5)
	cat := NewCatalog()
	id := 0
	add := func(name, family string, shared int64) {
		rank := ranks[rng.Intn(len(ranks))]
		a := &lora.Adapter{ID: id, Name: name, Rank: rank, Model: model}
		cat.AddFamily(a, tenants[id%len(tenants)], family, shared)
		id++
	}
	for f := 0; f < fams; f++ {
		shared := int64(rng.Intn(9)) * unit / 2
		for m := 0; m < perFam; m++ {
			add(fmt.Sprintf("f%d-m%d", f, m), fmt.Sprintf("fam%d", f), shared)
		}
	}
	for i := 0; i < 3; i++ { // standalone adapters
		add(fmt.Sprintf("solo%d", i), "", 0)
	}
	// A content duplicate of adapter 0 under a second ID.
	if e, ok := cat.Resolve(0); ok {
		dup := *e.Adapter
		dup.ID = id
		cat.AddFamily(&dup, e.Tenant, e.Family, e.SharedBytes)
		id++
	}
	universe := id

	cfg := Config{
		HostCapacity:      int64(6+rng.Intn(25)) * unit,
		RemoteLatency:     time.Duration(1+rng.Intn(5)) * time.Millisecond,
		RemoteBandwidth:   float64(1+rng.Intn(4)) * 1e9,
		MaxInflight:       gc.maxInflight,
		MaxPinnedFraction: gc.pinCap,
		Replicas:          gc.replicas,
	}
	if gc.chunkDiv > 0 {
		cfg.ChunkSize = model.AdapterBytes(64) / int64(gc.chunkDiv)
	}
	if gc.weights {
		cfg.LinkWeights = map[string]float64{"a": 1, "b": 3, "c": 2}
	}
	s := NewStore(cfg, cat)
	fmt.Fprintf(w, "== %s seed %d: universe %d cap %d\n", gc.name, seed, universe, cfg.HostCapacity)
	if gc.quotas {
		for _, tn := range tenants[:3] {
			q := TenantQuota{
				GuaranteedBytes: int64(rng.Intn(9)) * unit,
				BurstBytes:      int64(rng.Intn(9)) * unit,
			}
			err := s.SetQuota(tn, q)
			fmt.Fprintf(w, "quota %q %+v denied=%v\n", tn, q, err != nil)
		}
	}

	var now time.Duration
	for op := 0; op < 300; op++ {
		id := rng.Intn(universe + 1) // universe = uncatalogued
		fmt.Fprintf(w, "%d ", op)
		switch r := rng.Intn(100); {
		case r < 35:
			st, eta, q := s.Demand(id, now)
			fmt.Fprintf(w, "D %d %v %d %d\n", id, st, eta, q)
		case r < 50:
			eta, started := s.Prefetch(id, now)
			fmt.Fprintf(w, "P %d %d %v\n", id, eta, started)
		case r < 58:
			fam := fmt.Sprintf("fam%d", rng.Intn(fams+1))
			eta, started := s.PrefetchFamily(fam, now)
			fmt.Fprintf(w, "F %s %d %v\n", fam, eta, started)
		case r < 65:
			fmt.Fprintf(w, "H %d %v\n", id, s.HostResident(id, now))
		case r < 85:
			now += time.Duration(rng.Intn(20_000)) * time.Microsecond
			s.Advance(now)
			fmt.Fprintf(w, "A %d inflight %d\n", now, s.InflightFetches())
		case r < 93:
			d := s.NextFetchDone()
			if d > now {
				now = d
			}
			s.Advance(now)
			fmt.Fprintf(w, "N %d used %d\n", now, s.HostUsed())
		default:
			s.Advance(now - time.Duration(rng.Intn(50))*time.Millisecond)
			fmt.Fprintf(w, "S next %d\n", s.NextFetchDone())
		}
	}
	fmt.Fprintf(w, "stats %+v\nused %d\n", s.Stats(), s.HostUsed())
}

// TestStoreGoldenOps replays fixed seeded op sequences over both store
// modes and compares every answer, the final counters and the host
// bytes with testdata/golden_ops.txt. The golden file was recorded
// before whole-blob mode became the one-chunk case of the chunk store,
// so it pins the whole-blob results of the old dedicated path.
// Regenerate with -update-ops only for a deliberate, stated change of
// semantics.
func TestStoreGoldenOps(t *testing.T) {
	var buf bytes.Buffer
	for _, gc := range goldenCases {
		for _, seed := range goldenSeeds {
			runGoldenOps(&buf, gc, seed)
		}
	}
	golden := filepath.Join("testdata", "golden_ops.txt")
	if *updateOps {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if strings.HasPrefix(e, "==") {
			section = e
		}
		if g != e {
			t.Fatalf("line %d (%s) drifted from golden:\n got: %s\nwant: %s", i+1, section, g, e)
		}
	}
}
