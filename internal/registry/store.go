package registry

import (
	"fmt"
	"math"
	"sync"
	"time"

	"valora/internal/sim"
)

// Config shapes the host tier and the remote links of a Store.
type Config struct {
	// HostCapacity bounds resident host-DRAM bytes. In-flight fetches
	// do not reserve capacity: eviction happens when the bytes land,
	// so a queue of slow fetches cannot strip the warm set ahead of
	// time (MaxInflight bounds the landing overhang instead).
	HostCapacity int64
	// RemoteLatency is the per-fetch base latency of the registry
	// (request round trip + object-store lookup). A whole-blob store
	// pays it on the wire with every transfer; a chunked store pays it
	// once per adapter, after the adapter's last chunk lands.
	RemoteLatency time.Duration
	// RemoteBandwidth is each link's sustained transfer rate in
	// bytes/second. Transfers on one link serialize: a transfer
	// enqueued while another is on the wire queues behind it.
	RemoteBandwidth float64
	// MaxInflight bounds the outstanding adapter fetches. Fetched
	// bytes claim capacity only when they land, so the bound is what
	// keeps a burst of cold demands from queueing an eviction storm:
	// at most MaxInflight landings' worth of eviction can be
	// outstanding, and everything beyond is denied and simply retries
	// — the requests wait either way, but the warm set survives the
	// queue.
	MaxInflight int
	// MaxPinnedFraction caps the total guaranteed bytes quota pins may
	// claim, as a fraction of HostCapacity; the cap is fixed at store
	// construction. SetQuota denies (and reports) oversubscription
	// beyond it: the adapter-cold-start experiment showed quotas
	// regressing once pinned bytes approach half the tier — the
	// floating pool left over is too small to absorb the sweep. 0
	// means the default 0.5; negative disables the valve.
	MaxPinnedFraction float64
	// ChunkSize content-addresses adapters as ordered lists of
	// ChunkSize-byte chunks (chunk.go): family siblings dedup their
	// shared prefix, residency is refcounted per chunk, and the remote
	// side becomes Replicas fair-queued links that move only missing
	// chunks. 0 (the default) is the whole-blob store, the one-chunk
	// case: each adapter is a single private chunk, one FIFO link
	// carries every transfer, and eviction is strict LRU.
	ChunkSize int64
	// Replicas is the number of registry replica links, each with its
	// own RemoteBandwidth wire; chunks go to the least-loaded link. 0
	// means 1, and a whole-blob store always has one link.
	Replicas int
	// LinkWeights sets per-tenant fair-share weights on the links
	// (unlisted tenants weigh 1): each link serves the backlogged
	// tenant with the least weighted bytes served, demand class before
	// prefetch within a tenant, so one tenant's cold sweep cannot
	// starve another's demand fetches. A whole-blob store sends every
	// transfer as one flow, so its link is plain FIFO.
	LinkWeights map[string]float64
}

func (c Config) withDefaults() Config {
	if c.HostCapacity <= 0 {
		c.HostCapacity = 16 << 30
	}
	if c.RemoteLatency <= 0 {
		c.RemoteLatency = 5 * time.Millisecond
	}
	if c.RemoteBandwidth <= 0 {
		c.RemoteBandwidth = 1.2e9
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxPinnedFraction == 0 {
		c.MaxPinnedFraction = 0.5
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize, c.Replicas = 0, 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// pinCap reports the byte bound of the quota safety valve (the largest
// total GuaranteedBytes SetQuota will accept), or a negative value
// when the valve is disabled.
func (c Config) pinCap() int64 {
	if c.MaxPinnedFraction < 0 {
		return -1
	}
	return int64(c.MaxPinnedFraction * float64(c.HostCapacity))
}

// TenantQuota bounds a tenant's host-tier residency. GuaranteedBytes
// of the tenant's hottest adapters are pinned (never evicted), the
// counterpart of sched.TenantConfig's guaranteed weight; BurstBytes of
// additional residency is protected (evicted only when no unprotected
// victim remains), the counterpart of burst credit. Residency beyond
// guaranteed+burst competes in plain LRU.
type TenantQuota struct {
	GuaranteedBytes int64
	BurstBytes      int64
}

// Status reports what the host tier did about one adapter demand.
type Status int

const (
	// StatusHit: the adapter is host-resident; a GPU swap-in can start
	// immediately (one PCIe copy, as the paper assumes).
	StatusHit Status = iota
	// StatusFetching: a remote fetch is already in flight; the demand
	// must wait for its completion.
	StatusFetching
	// StatusStarted: this demand started a remote fetch; the adapter
	// becomes host-resident at the returned completion time.
	StatusStarted
	// StatusDenied: no fetch could start because the host tier cannot
	// make room (everything resident is pinned or protected and the
	// in-flight reservations fill the remainder).
	StatusDenied
	// StatusUncatalogued: the adapter is unknown to the catalog; the
	// store does not manage it and callers should fall back to the
	// always-host-resident behavior.
	StatusUncatalogued
)

func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusFetching:
		return "fetching"
	case StatusStarted:
		return "started"
	case StatusDenied:
		return "denied"
	case StatusUncatalogued:
		return "uncatalogued"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Stats are the store's cumulative counters. Demand hits/misses count
// Ensure calls only (a demand retrying behind an in-flight fetch is
// not re-counted); prefetch traffic is accounted separately so the
// demand hit rate is not polluted by speculative warming.
type Stats struct {
	HostHits        int
	HostMisses      int
	Fetches         int
	FetchBytes      int64
	PrefetchFetches int
	PrefetchBytes   int64
	FetchDenied     int
	Evictions       int
	EvictedBytes    int64
	// Discarded counts fetched transfers dropped at landing because
	// quota pins grew past the admission-time room check.
	Discarded int

	// Chunk counters (Config.ChunkSize > 0); always zero in a
	// whole-blob store, where they would only repeat the adapter
	// counters. FetchBytes/PrefetchBytes above count bytes actually
	// put on the links — deduped chunks count once — so with chunking
	// they can be far below the nominal adapter sizes.
	ChunkFetches    int   // chunk transfers enqueued on replica links
	ChunkFetchBytes int64 // bytes those transfers moved
	// DedupHits counts demands served without any transfer because
	// every chunk was already resident via family siblings or the
	// family warm set (a subset of HostHits).
	DedupHits int
	// DedupedBytes accumulates nominal bytes that never crossed the
	// link because chunk-level sharing already held them.
	DedupedBytes int64
	// ChunkEvictions counts chunks freed (refcount reached zero on
	// adapter eviction).
	ChunkEvictions int
}

// noEvent is the due time of a store with nothing in flight.
const noEvent = time.Duration(math.MaxInt64)

// Store is the tiered adapter distribution state: the bounded host
// cache plus the remote-link fetch model. One Store models one
// deployment's host DRAM (a multi-GPU node shares it across serving
// instances); all times are virtual (sim) times. The exported methods
// are safe for concurrent use, but the mutex guards state integrity,
// not event ordering: the link model's fetch order is observable, so
// only one global sequential order reproduces it, and a cluster with
// a store always replays on the sequential engine.
type Store struct {
	mu     sync.Mutex
	cfg    Config
	cat    *Catalog
	quotas map[string]TenantQuota

	chunks   map[uint64]*chunk        // every chunk seen, by digest
	adapters map[uint64]*chunkAdapter // every blob seen, by blob key
	root     chunkAdapter             // LRU sentinel: root.next = LRU, root.prev = MRU
	used     int64                    // Σ resident chunk bytes (deduplicated)
	pinnedB  int64                    // pinned nominal bytes across tenants
	links    []*link
	inflight []*chunkAdapter // fetching adapters
	seq      int64           // transfer enqueue sequence
	advanced time.Duration   // high-water mark of Advance calls
	due      time.Duration   // earliest pending landing or completion

	tenantPinned   map[string]int64
	tenantResident map[string]int64

	// What sets a whole-blob store (ChunkSize 0) apart from a chunked
	// one, fixed by NewStore.
	fetchLatency time.Duration // RemoteLatency charged per adapter, after its last chunk
	evictWindow  int           // LRU-end victims ranked by freeable bytes
	oneFlow      bool          // every transfer in one link flow and class

	cost     costAccum         // online fetch-cost fit (costmodel.go)
	fetchObs func(FetchSample) // completed-fetch observer (costmodel.go)

	stats Stats
}

// NewStore builds a store over a catalog.
func NewStore(cfg Config, cat *Catalog) *Store {
	if cat == nil {
		cat = NewCatalog()
	}
	s := &Store{
		cfg:            cfg.withDefaults(),
		cat:            cat,
		quotas:         make(map[string]TenantQuota),
		chunks:         make(map[uint64]*chunk),
		adapters:       make(map[uint64]*chunkAdapter),
		due:            noEvent,
		tenantPinned:   make(map[string]int64),
		tenantResident: make(map[string]int64),
	}
	s.root.prev = &s.root
	s.root.next = &s.root
	// A whole-blob transfer carries a whole adapter, so the round trip
	// rides on the wire with it, victims go in strict LRU order, and
	// every transfer joins one FIFO flow.
	wireLatency := time.Duration(0)
	s.fetchLatency, s.evictWindow = s.cfg.RemoteLatency, chunkEvictWindow
	if s.cfg.ChunkSize == 0 {
		wireLatency, s.fetchLatency, s.evictWindow, s.oneFlow = s.cfg.RemoteLatency, 0, 1, true
	}
	for i := 0; i < s.cfg.Replicas; i++ {
		s.links = append(s.links, &link{id: i, served: make(map[string]float64),
			bandwidth: s.cfg.RemoteBandwidth, latency: wireLatency, weights: s.cfg.LinkWeights})
	}
	return s
}

// SetQuota declares a tenant's residency quota. Quotas only shape
// pinning and eviction from the time they are set; they do not evict
// retroactively. It denies oversubscription — a total GuaranteedBytes
// across tenants beyond the pin cap fixed at store construction
// (Config.MaxPinnedFraction of the host tier) — returning an error
// and leaving the tenant's previous quota in place: guarantees past
// that fraction starve the floating LRU pool and regress exactly the
// cold-start tail they exist to protect.
func (s *Store) SetQuota(tenant string, q TenantQuota) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap := s.cfg.pinCap(); cap >= 0 && q.GuaranteedBytes > 0 {
		var total int64
		for t, other := range s.quotas {
			if t != tenant {
				total += other.GuaranteedBytes
			}
		}
		if total+q.GuaranteedBytes > cap {
			return fmt.Errorf("registry: quota for %q oversubscribes the host tier: %d guaranteed bytes total > cap %d (%.0f%% of %d); shrink guarantees or raise MaxPinnedFraction",
				tenant, total+q.GuaranteedBytes, cap, 100*s.cfg.MaxPinnedFraction, s.cfg.HostCapacity)
		}
	}
	s.quotas[tenant] = q
	return nil
}

// Stats returns a copy of the cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.cfg.ChunkSize == 0 {
		st.ChunkFetches, st.ChunkFetchBytes, st.ChunkEvictions = 0, 0, 0
	}
	return st
}

// HostUsed reports resident host bytes (deduplicated resident chunk
// bytes).
func (s *Store) HostUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// InflightFetches reports the number of adapter fetches in flight.
func (s *Store) InflightFetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// NextFetchDone reports the earliest in-flight fetch completion, or
// sim.Never when the links are idle. Blocked instances use it to jump
// their clocks to the moment new residency appears.
func (s *Store) NextFetchDone() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := sim.Never
	for _, ca := range s.inflight {
		if next == sim.Never || ca.done < next {
			next = ca.done
		}
	}
	return next
}

// Advance completes every fetch due at or before now. Instance clocks
// interleave on a shared timeline, so Advance is monotonic: a call
// with an older now than a previous call is a no-op.
func (s *Store) Advance(now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
}

// advance is Advance without the lock, for the exported entry points
// that already hold it. It processes chunk landings and adapter
// completions in global event order; with nothing due it costs one
// comparison.
func (s *Store) advance(now time.Duration) {
	if now < s.advanced {
		return
	}
	s.advanced = now
	for s.due <= now {
		ca, l, at := s.nextEvent()
		if s.due = at; at > now {
			return
		}
		if ca != nil {
			s.completeFetch(ca)
		} else {
			s.landChunk(l.pop())
		}
	}
}

// nextEvent finds the earliest pending event: a fetch whose chunks
// have all landed completes at its done time, a link's head transfer
// lands at its done time. Completions sort before landings at equal
// instants so a just-finished adapter's pins are visible to the
// landing's eviction pass; ties break on key and link id.
func (s *Store) nextEvent() (ca *chunkAdapter, l *link, at time.Duration) {
	at = noEvent
	for _, f := range s.inflight {
		if f.missing == 0 && (ca == nil || f.done < at || (f.done == at && f.key < ca.key)) {
			ca, at = f, f.done
		}
	}
	for _, cand := range s.links {
		if h, ok := cand.head(); ok && h.done < at {
			ca, l, at = nil, cand, h.done
		}
	}
	return ca, l, at
}

// HostResident reports whether an adapter's content is host-resident
// at now, without touching LRU order or stats (the admission stage
// uses it to stamp cold-start arrivals).
func (s *Store) HostResident(id int, now time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return true // uncatalogued adapters are host-resident by definition
	}
	ca := s.adapterOf(ent)
	if ca.resident || ca.fetching {
		return ca.resident
	}
	// Cold, but family siblings may already hold every chunk — a
	// demand would hit without touching the link.
	return allChunksResident(ca.chunks)
}

// Ensure is the demand path: the serving engine needs an adapter on
// the GPU and asks the host tier for it. A hit touches the LRU (and
// may rotate the tenant's quota pins onto it); a miss starts a remote
// fetch when one is not already in flight and the tier can reserve
// room. eta is the fetch completion time for StatusFetching and
// StatusStarted.
func (s *Store) Ensure(id int, now time.Duration) (st Status, eta time.Duration) {
	st, eta, _ = s.Demand(id, now)
	return st, eta
}

// Demand is Ensure plus the marginal cost: queued is the bytes this
// call actually put on the remote links (0 for hits, fetches already
// in flight, and denials) — only the missing chunks, so deduped bytes
// count once, which is what fetch-byte accounting and cost-ranked
// victim selection must see.
func (s *Store) Demand(id int, now time.Duration) (st Status, eta time.Duration, queued int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return StatusUncatalogued, 0, 0
	}
	return s.ensure(ent, now, true)
}

// Prefetch speculatively warms the host tier for an adapter expected
// to be demanded soon. Resident content is touched (it is about to be
// hot); in-flight fetches are left alone; otherwise a fetch starts if
// room can be reserved. It never counts demand hits or misses.
// started reports whether this call put a new fetch on the links; eta
// is its completion time.
func (s *Store) Prefetch(id int, now time.Duration) (eta time.Duration, started bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return 0, false
	}
	st, done, _ := s.ensure(ent, now, false)
	if st == StatusStarted {
		return done, true
	}
	return 0, false
}

// PrefetchFamily speculatively warms a family's shared chunk prefix —
// the tree-structured warm set: the prefix materializes as its own
// refcounted, evictable resident object, so every member of a popular
// family subsequently fetches only its private tail. Resident
// prefixes are touched; in-flight ones left alone. started reports
// whether a new fetch went on the links. A whole-blob store has no
// shared chunks, so it never starts one.
func (s *Store) PrefetchFamily(family string, now time.Duration) (eta time.Duration, started bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	rep, ok := s.cat.FamilyRep(family)
	if !ok {
		return 0, false
	}
	sharedN := sharedChunkCount(rep, s.cfg.ChunkSize)
	if sharedN == 0 {
		return 0, false
	}
	key := familyPrefixKey(family)
	ca := s.adapters[key]
	if ca == nil {
		list := s.adapterOf(rep).chunks[:sharedN]
		ca = &chunkAdapter{key: key, tenant: rep.Tenant, family: family, chunks: list}
		for _, c := range list {
			ca.bytes += c.bytes
		}
		s.adapters[key] = ca
	}
	switch {
	case ca.resident:
		s.touch(ca)
		return 0, false
	case ca.fetching:
		return 0, false
	case allChunksResident(ca.chunks):
		s.materialize(ca)
		return 0, false
	case !s.startFetch(ca, now, false):
		return 0, false
	}
	s.stats.PrefetchFetches++
	s.stats.PrefetchBytes += ca.queuedBytes
	s.stats.DedupedBytes += ca.bytes - ca.queuedBytes
	return ca.done, true
}

// FamilyOf reports the catalogued family of an adapter ("" when
// standalone or uncatalogued).
func (s *Store) FamilyOf(id int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.cat.Resolve(id)
	if !ok {
		return ""
	}
	return ent.Family
}

// CheckInvariants verifies the tier's bookkeeping: the LRU list and
// the adapter index agree, refcounts are never negative and cover
// every resident and fetching reference, resident chunk bytes equal
// used and respect capacity, resident adapters reference only
// resident chunks, per-tenant pinned/resident sums match their
// counters and pinned bytes never exceed the guaranteed quota, link
// queues are completion-ordered, and no event is due before the
// cached due time. Tests call it after every mutation.
func (s *Store) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := make(map[uint64]int)
	pinned := make(map[string]int64)
	resident := make(map[string]int64)
	listed := 0
	for ca := s.root.next; ca != &s.root; ca = ca.next {
		listed++
		if s.adapters[ca.key] != ca {
			return fmt.Errorf("registry: list entry %x not indexed", ca.key)
		}
		if !ca.resident || ca.fetching {
			return fmt.Errorf("registry: non-resident entry %x on the LRU list", ca.key)
		}
		if ca.next.prev != ca || ca.prev.next != ca {
			return fmt.Errorf("registry: LRU links broken at %x", ca.key)
		}
		resident[ca.tenant] += ca.bytes
		if ca.pinned {
			pinned[ca.tenant] += ca.bytes
		}
		for _, c := range ca.chunks {
			refs[c.digest]++
			if !c.resident {
				return fmt.Errorf("registry: resident adapter %x references evicted chunk %x", ca.key, c.digest)
			}
		}
	}
	if len(s.inflight) > s.cfg.MaxInflight {
		return fmt.Errorf("registry: %d adapter fetches in flight, bound is %d", len(s.inflight), s.cfg.MaxInflight)
	}
	for _, ca := range s.inflight {
		if ca.resident || !ca.fetching {
			return fmt.Errorf("registry: in-flight entry %x not in fetching state", ca.key)
		}
		if s.adapters[ca.key] != ca {
			return fmt.Errorf("registry: in-flight entry %x not indexed", ca.key)
		}
		if ca.pinned {
			return fmt.Errorf("registry: in-flight entry %x is pinned", ca.key)
		}
		missing := 0
		for _, c := range ca.chunks {
			refs[c.digest]++
			if !c.resident {
				missing++
				if !c.fetching {
					return fmt.Errorf("registry: fetch %x awaits chunk %x that is neither resident nor fetching", ca.key, c.digest)
				}
			}
		}
		if missing != ca.missing {
			return fmt.Errorf("registry: fetch %x counts %d missing chunks, list says %d", ca.key, ca.missing, missing)
		}
	}
	active := 0
	for key, ca := range s.adapters {
		if ca.key != key {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating entry the error names, never pass/fail
			return fmt.Errorf("registry: entry %x indexed under %x", ca.key, key)
		}
		if ca.resident || ca.fetching {
			active++
		} else if ca.pinned {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating entry the error names, never pass/fail
			return fmt.Errorf("registry: cold entry %x is pinned", key)
		}
	}
	if listed+len(s.inflight) != active {
		return fmt.Errorf("registry: %d resident + %d fetching != %d active entries", listed, len(s.inflight), active)
	}
	var usedBytes int64
	for digest, c := range s.chunks {
		if c.digest != digest {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x indexed under %x", c.digest, digest)
		}
		if c.refs < 0 {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x refcount %d < 0", c.digest, c.refs)
		}
		if c.refs < refs[digest] {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating chunk the error names, never pass/fail
			return fmt.Errorf("registry: chunk %x refcount %d below the %d resident/fetching references", c.digest, c.refs, refs[digest])
		}
		if c.resident {
			usedBytes += c.bytes
		}
	}
	if usedBytes != s.used {
		return fmt.Errorf("registry: used=%d but resident chunk bytes sum to %d", s.used, usedBytes)
	}
	if s.used > s.cfg.HostCapacity {
		return fmt.Errorf("registry: host tier over-committed: used=%d > capacity=%d", s.used, s.cfg.HostCapacity)
	}
	var pinnedTotal int64
	for _, b := range pinned {
		pinnedTotal += b
	}
	if pinnedTotal != s.pinnedB {
		return fmt.Errorf("registry: pinned counter %d, list says %d", s.pinnedB, pinnedTotal)
	}
	for t, b := range pinned {
		if q, ok := s.quotas[t]; ok && b > q.GuaranteedBytes {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q pinned %d bytes over guaranteed %d", t, b, q.GuaranteedBytes)
		}
	}
	if err := sameCounts("pinned", s.tenantPinned, pinned); err != nil {
		return err
	}
	if err := sameCounts("resident", s.tenantResident, resident); err != nil {
		return err
	}
	for _, l := range s.links {
		last := time.Duration(-1)
		for _, tr := range l.queue {
			if tr.done < last {
				return fmt.Errorf("registry: link %d schedule out of completion order", l.id)
			}
			last = tr.done
			if !tr.ch.fetching || tr.ch.tr != tr {
				return fmt.Errorf("registry: link %d holds a transfer for chunk %x not marked fetching", l.id, tr.ch.digest)
			}
		}
	}
	if _, _, at := s.nextEvent(); at < s.due {
		return fmt.Errorf("registry: event at %v before the cached due time %v", at, s.due)
	}
	return nil
}

// sameCounts compares a per-tenant byte counter with the sums the
// LRU list gives (in-flight bytes are charged to a tenant only at
// completion).
func sameCounts(what string, counter, list map[string]int64) error {
	for t, c := range counter {
		if c != list[t] {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q %s counter %d, list says %d", t, what, c, list[t])
		}
	}
	for t, b := range list {
		if counter[t] != b {
			//valora:allow nondeterminism -- invariant checker: any violation fails; map order only varies which violating tenant the error names, never pass/fail
			return fmt.Errorf("registry: tenant %q %s counter %d, list says %d", t, what, counter[t], b)
		}
	}
	return nil
}
