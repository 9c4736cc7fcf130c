package registry

import (
	"testing"
	"time"

	"valora/internal/lmm"
	"valora/internal/lora"
)

// FuzzStoreOps decodes bytes into a store shape and an op sequence —
// demands, prefetches, family warms, residency probes, clock steps and
// link drains over mixed-size family adapters — and checks the tier's
// invariants and the capacity bound after every op, in both the
// whole-blob and the chunked mode. The seed corpus runs under plain
// go test; go test -fuzz FuzzStoreOps explores further.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{1, 5, 2, 3, 9, 7, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 5, 5, 6, 6, 7})
	f.Add([]byte{2, 1, 0, 2, 4, 8, 16, 32, 64, 128, 255, 254, 253, 0, 6, 6, 6})
	f.Add([]byte{3, 7, 3, 1, 200, 100, 50, 25, 12, 6, 3, 1, 0, 7, 7, 7, 7, 1})
	f.Add([]byte{0, 0, 0, 9, 0, 16, 0, 17, 0, 18, 6, 0, 0, 16, 0, 17, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		model := lmm.QwenVL7B()
		unit := model.AdapterBytes(16)
		ranks := []int{16, 32, 64, 128}
		tenants := []string{"a", "b", ""}
		shape, capSlots, quota, bw := data[0], data[1], data[2], data[3]
		data = data[4:]

		const fams, perFam = 3, 3
		cat := NewCatalog()
		for id := 0; id < fams*perFam; id++ {
			a := &lora.Adapter{ID: id, Name: lora.MakeUniformAdapters(model, id+1, 16)[id].Name,
				Rank: ranks[(id+int(shape))%len(ranks)], Model: model}
			cat.AddFamily(a, tenants[id%len(tenants)], string(rune('A'+id/perFam)), int64(shape%4)*unit)
		}
		cfg := Config{
			HostCapacity:      int64(2+capSlots%24) * unit,
			RemoteLatency:     time.Millisecond,
			RemoteBandwidth:   float64(1+bw%4) * 1e9,
			MaxInflight:       1 + int(bw/4)%8,
			MaxPinnedFraction: -1,
		}
		if shape&1 == 1 { // chunked, else whole-blob
			cfg.ChunkSize = model.AdapterBytes(64) / int64(1+(shape>>1)%8)
			cfg.Replicas = 1 + int(shape>>4)%3
			cfg.LinkWeights = map[string]float64{"a": 1, "b": 3}
		}
		s := NewStore(cfg, cat)
		for i, tn := range tenants[:2] {
			q := quota >> (4 * i)
			s.SetQuota(tn, TenantQuota{GuaranteedBytes: int64(q&3) * unit, BurstBytes: int64(q>>2&3) * unit})
		}

		var now time.Duration
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, int(data[i+1])
			id := arg % (fams*perFam + 1) // the last id is uncatalogued
			switch op {
			case 0, 1:
				s.Demand(id, now)
			case 2:
				s.Prefetch(id, now)
			case 3:
				s.PrefetchFamily(string(rune('A'+arg%(fams+1))), now)
			case 4:
				s.HostResident(id, now)
			case 5:
				now += time.Duration(arg) * 100 * time.Microsecond
				s.Advance(now)
			case 6:
				if d := s.NextFetchDone(); d > now {
					now = d
				}
				s.Advance(now)
			case 7:
				s.Advance(now - time.Duration(arg)*time.Millisecond) // stale: a no-op
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d %d): %v", i/2, op, arg, err)
			}
			if used := s.HostUsed(); used > cfg.HostCapacity {
				t.Fatalf("op %d: host tier over-committed: used %d > capacity %d", i/2, used, cfg.HostCapacity)
			}
		}
	})
}
