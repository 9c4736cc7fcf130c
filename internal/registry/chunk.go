package registry

import (
	"hash/fnv"
	"time"
)

// This file is the host tier's data path. The store content-addresses
// each adapter as an ordered list of chunks (catalog.go). Residency is
// refcounted at the chunk level — an adapter is host-hit iff all its
// chunks are resident, eviction frees only chunks no resident adapter
// references — and the remote side is R replica links, each a
// per-tenant weighted fair queue (link.go), that transfer only the
// chunks not already resident or in flight. Family siblings share
// their base-delta prefix chunks, so a sibling of a warm adapter
// fetches only its private tail. A whole-blob store (ChunkSize 0) is
// the one-chunk case of the same path: every adapter is one private
// chunk on one FIFO link.

// chunk is one content-addressed span of adapter bytes in the host
// tier.
type chunk struct {
	digest uint64
	bytes  int64
	// refs counts the resident and fetching adapters (and family
	// prefix warm-set objects) whose chunk list includes this chunk. A
	// chunk is freed exactly when its refcount drops to zero, so a
	// chunk referenced by any resident adapter can never be evicted.
	refs     int
	resident bool
	fetching bool
	tr       *transfer       // the queued/in-flight transfer while fetching
	waiters  []*chunkAdapter // fetching adapters awaiting this chunk
}

// chunkAdapter is one adapter's (or family warm-set prefix's) state in
// the host tier: cold, fetching or resident. It lives for the store's
// lifetime once seen, so its chunk list is built once. Quota pinning
// and per-tenant residency accounting stay at adapter granularity, in
// nominal adapter bytes; capacity accounting is the deduplicated sum
// of resident chunk bytes.
type chunkAdapter struct {
	// The fields the LRU walks read (pin rotation, eviction) come
	// first so they share a cache line.
	prev, next *chunkAdapter // intrusive LRU list, resident entries only
	tenant     string
	pinned     bool
	resident   bool
	fetching   bool
	demand     bool
	bytes      int64 // nominal bytes (quota/pin accounting)

	key    uint64 // whole-blob digest, or the synthetic family-prefix key
	family string
	chunks []*chunk

	missing     int           // chunks not yet resident (while fetching)
	done        time.Duration // completion estimate / time (while fetching)
	lastLand    time.Duration // latest awaited-chunk landing seen
	requested   time.Duration // fetch request time (cost model)
	queuedBytes int64         // bytes this fetch put on the links
}

// chunkEvictWindow bounds how many LRU-end eviction candidates a
// chunked store's marginal-bytes victim ranking considers per
// eviction: within the window the victim freeing the most actual
// (unique) bytes goes first, so eviction pressure lands on private
// tails before it touches warm shared prefixes whose eviction would
// free nothing. A whole-blob store's window is 1: strict LRU.
const chunkEvictWindow = 4

// adapterOf returns a catalogued blob's host-tier state, creating it
// cold (with its chunk objects) on first sight. Chunk objects stay in
// the index for their lifetime even at zero refs: chunk lists hold
// pointers into them, so deleting one would let a re-fetch mint a
// second object for the same digest and double-count residency. Both
// indexes are bounded by the catalog's blob and chunk universe.
func (s *Store) adapterOf(ent *Entry) *chunkAdapter {
	if ca := s.adapters[ent.Digest]; ca != nil {
		return ca
	}
	spans := chunkSpans(ent, s.cfg.ChunkSize)
	list := make([]*chunk, len(spans))
	for i, sp := range spans {
		c, ok := s.chunks[sp.Digest]
		if !ok {
			c = &chunk{digest: sp.Digest, bytes: sp.Bytes}
			s.chunks[sp.Digest] = c
		}
		list[i] = c
	}
	ca := &chunkAdapter{key: ent.Digest, tenant: ent.Tenant, family: ent.Family, bytes: ent.Adapter.Bytes(), chunks: list}
	s.adapters[ent.Digest] = ca
	return ca
}

// allChunksResident reports whether every chunk of the list is
// host-resident.
//
//valora:hotpath
func allChunksResident(list []*chunk) bool {
	for _, c := range list {
		if !c.resident {
			return false
		}
	}
	return true
}

// touch marks a resident adapter most recently used and rotates its
// tenant's quota pins onto it — the resolve hot path.
//
//valora:hotpath
func (s *Store) touch(ca *chunkAdapter) {
	if s.root.prev != ca {
		ca.prev.next = ca.next
		ca.next.prev = ca.prev
		s.pushMRU(ca)
	}
	s.promote(ca)
}

// pushMRU links ca at the most-recently-used end of the LRU list.
//
//valora:hotpath
func (s *Store) pushMRU(ca *chunkAdapter) {
	ca.prev = s.root.prev
	ca.next = &s.root
	ca.prev.next = ca
	s.root.prev = ca
}

// ensure is the demand/prefetch path (Demand and Prefetch both land
// here; demand selects the link class and the hit/miss counters).
// queued is the bytes this call put on the links.
func (s *Store) ensure(ent *Entry, now time.Duration, demand bool) (st Status, eta time.Duration, queued int64) {
	ca := s.adapterOf(ent)
	if ca.resident {
		if demand {
			s.stats.HostHits++
		}
		s.touch(ca)
		return StatusHit, 0, 0
	}
	if ca.fetching {
		if demand && !ca.demand {
			// A demand caught up with its speculative prefetch: its
			// not-yet-started chunk transfers upgrade to demand class
			// and jump the prefetch backlog within the tenant's queue.
			s.promoteInflight(ca, now)
		}
		return StatusFetching, ca.done, 0
	}
	// Content-identical adapters share the state; the one demanded now
	// owns it while it is fetching or resident.
	ca.tenant, ca.family = ent.Tenant, ent.Family
	if allChunksResident(ca.chunks) {
		// Every chunk is already host-resident via family siblings (or
		// the family warm set): the adapter materializes as resident
		// without touching the link at all — the dedup host hit.
		s.materialize(ca)
		s.pinIfFree(ca)
		if demand {
			s.stats.HostHits++
			s.stats.DedupHits++
		}
		s.stats.DedupedBytes += ca.bytes
		s.touch(ca)
		return StatusHit, 0, 0
	}
	if !s.startFetch(ca, now, demand) {
		// Denied demands retry every scheduling round; counting each
		// retry as a fresh miss would swamp the hit rate, so denials
		// have their own counter and misses count fetch starts only.
		if demand {
			s.stats.FetchDenied++
		}
		return StatusDenied, 0, 0
	}
	if demand {
		s.stats.HostMisses++
		s.stats.Fetches++
		s.stats.FetchBytes += ca.queuedBytes
	} else {
		s.stats.PrefetchFetches++
		s.stats.PrefetchBytes += ca.queuedBytes
	}
	s.stats.DedupedBytes += ca.bytes - ca.queuedBytes
	return StatusStarted, ca.done, ca.queuedBytes
}

// materialize makes a cold entry resident over its already-resident
// chunks (taking its refs) and links it MRU.
func (s *Store) materialize(ca *chunkAdapter) {
	ca.resident = true
	for _, c := range ca.chunks {
		c.refs++
	}
	s.pushMRU(ca)
	s.tenantResident[ca.tenant] += ca.bytes
}

// startFetch puts an adapter fetch in flight. It denies hopeless
// transfers up front — missing bytes that cannot fit even after
// evicting every unpinned resident — and bounds the outstanding
// queue, but evicts nothing: capacity is claimed at landing. Refs are
// taken on every chunk up front (a mid-fetch eviction can therefore
// never free a chunk the fetch counts on), transfers are enqueued for
// exactly the chunks that are neither resident nor already in flight,
// each on the replica link with the least pending bytes, and the
// adapter completes fetchLatency after its last awaited chunk lands.
func (s *Store) startFetch(ca *chunkAdapter, now time.Duration, demand bool) bool {
	if len(s.inflight) >= s.cfg.MaxInflight {
		return false
	}
	var need int64
	for _, c := range ca.chunks {
		if !c.resident {
			need += c.bytes
		}
	}
	if need+s.pinnedB > s.cfg.HostCapacity {
		return false
	}
	ca.fetching, ca.demand, ca.requested, ca.lastLand = true, demand, now, now
	ca.missing, ca.queuedBytes = 0, 0
	// A whole-blob store sends every transfer as one flow in one class,
	// so its fair link reduces to FIFO by enqueue order.
	flow, class := ca.tenant, demand
	if s.oneFlow {
		flow, class = "", true
	}
	enqueued, upgraded := false, false
	for _, c := range ca.chunks {
		c.refs++
		if c.resident {
			continue
		}
		ca.missing++
		c.waiters = append(c.waiters, ca)
		if c.fetching {
			// Riding a sibling's in-flight transfer; a demand waiting on
			// a prefetch-class transfer upgrades its class.
			if class && !c.tr.demand && c.tr.start > now {
				c.tr.demand = true
				upgraded = true
			}
			continue
		}
		c.fetching = true
		s.seq++
		c.tr = &transfer{ch: c, tenant: flow, demand: class, seq: s.seq}
		s.leastPendingLink().enqueue(c.tr, now)
		enqueued = true
		ca.queuedBytes += c.bytes
		s.stats.ChunkFetches++
		s.stats.ChunkFetchBytes += c.bytes
	}
	s.inflight = append(s.inflight, ca)
	if upgraded {
		for _, l := range s.links {
			l.reschedule(now)
		}
	}
	if enqueued || upgraded {
		s.refreshDeadlines()
	} else {
		s.refreshAdapterDone(ca)
	}
	return true
}

// leastPendingLink picks the replica link with the least pending
// bytes (lowest id on ties) — the deterministic load-balancing rule
// that spreads one adapter's chunks across replicas.
func (s *Store) leastPendingLink() *link {
	best := s.links[0]
	for _, l := range s.links[1:] {
		if l.pending < best.pending {
			best = l
		}
	}
	return best
}

// promoteInflight upgrades an in-flight prefetch to demand class: its
// not-yet-started transfers re-rank within their tenant's fair queue
// (demand before prefetch) on every affected link. Whole-blob
// transfers are all one class already, so only the fetch's own class
// changes.
func (s *Store) promoteInflight(ca *chunkAdapter, now time.Duration) {
	ca.demand = true
	changed := false
	for _, c := range ca.chunks {
		if c.fetching && !c.tr.demand && c.tr.start > now {
			c.tr.demand = true
			changed = true
		}
	}
	if changed {
		for _, l := range s.links {
			l.reschedule(now)
		}
		s.refreshDeadlines()
	}
}

// refreshDeadlines recomputes every in-flight adapter's completion
// estimate and the store's next due event after a link reschedule.
func (s *Store) refreshDeadlines() {
	for _, ca := range s.inflight {
		s.refreshAdapterDone(ca)
	}
	_, _, s.due = s.nextEvent()
}

// refreshAdapterDone derives one fetching adapter's completion:
// fetchLatency past the latest of its awaited chunks' schedules (or
// past the last landing already seen, once everything is resident).
func (s *Store) refreshAdapterDone(ca *chunkAdapter) {
	m := ca.lastLand
	for _, c := range ca.chunks {
		if !c.resident && c.tr != nil && c.tr.done > m {
			m = c.tr.done
		}
	}
	ca.done = m + s.fetchLatency
}

// landChunk claims capacity for a completed chunk transfer, evicting
// for room. When not even that can make room the transfer is
// discarded and every fetch awaiting the chunk is aborted — a live
// demand will retry. If the pinned set alone leaves no room, the
// eviction pass is skipped: it could only destroy the warm set.
func (s *Store) landChunk(tr *transfer) {
	c := tr.ch
	c.tr = nil
	c.fetching = false
	// Nothing appends to c.waiters while the waiters are served below,
	// so the backing array is reused by the chunk's next fetch.
	waiters := c.waiters
	c.waiters = c.waiters[:0]
	if c.bytes+s.pinnedB <= s.cfg.HostCapacity {
		s.evictFor(c.bytes)
	}
	if s.used+c.bytes > s.cfg.HostCapacity {
		s.stats.Discarded++
		for _, w := range waiters {
			s.abortFetch(w)
		}
		return
	}
	c.resident = true
	s.used += c.bytes
	for _, w := range waiters {
		w.missing--
		w.lastLand = tr.done
		if w.missing == 0 {
			w.done = tr.done + s.fetchLatency
		}
	}
}

// completeFetch flips a fully-landed fetch resident: LRU entry,
// per-tenant residency charge, quota pin from unspent guarantee, and
// a fetch-cost observation for the measured cost model. A completing
// fetch takes a pin only from unspent guaranteed bytes; stealing
// happens on demand hits (promote), so one cold fetch cannot displace
// a proven-hot pin.
func (s *Store) completeFetch(ca *chunkAdapter) {
	s.removeInflight(ca)
	ca.fetching = false
	ca.resident = true
	s.pushMRU(ca)
	s.tenantResident[ca.tenant] += ca.bytes
	s.pinIfFree(ca)
	s.recordFetchCost(ca)
}

// abortFetch unwinds a fetch whose awaited chunk was discarded: refs
// are dropped (freeing chunks nothing else references), the in-flight
// entry disappears, and any remaining queued transfers this fetch
// alone was waiting on are cancelled.
func (s *Store) abortFetch(ca *chunkAdapter) {
	if !ca.fetching {
		return
	}
	ca.fetching = false
	s.removeInflight(ca)
	for _, c := range ca.chunks {
		c.refs--
		for i, w := range c.waiters {
			if w == ca {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		if c.fetching && len(c.waiters) == 0 {
			// Nothing waits on this transfer any more; cancel it.
			s.cancelTransfer(c)
		}
	}
}

// cancelTransfer removes a chunk's queued transfer from its link. The
// transfer may already be in service; it is cancelled regardless —
// the link model does not bill partial transfers.
func (s *Store) cancelTransfer(c *chunk) {
	for _, l := range s.links {
		for i, tr := range l.queue {
			if tr.ch == c {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				l.pending -= c.bytes
				l.reschedule(s.advanced)
				c.fetching = false
				c.tr = nil
				s.refreshDeadlines()
				return
			}
		}
	}
}

// removeInflight drops ca from the in-flight fetch list.
func (s *Store) removeInflight(ca *chunkAdapter) {
	for i, f := range s.inflight {
		if f == ca {
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			return
		}
	}
}

// freeableBytes reports how many bytes evicting ca would actually
// free: the chunks only it references. Shared prefix chunks of a
// family with other resident members free nothing.
func freeableBytes(ca *chunkAdapter) int64 {
	var b int64
	for _, c := range ca.chunks {
		if c.refs == 1 && c.resident {
			b += c.bytes
		}
	}
	return b
}

// protected reports whether an adapter sits inside its tenant's
// guaranteed+burst residency envelope (evicted only as a last
// resort).
func (s *Store) protected(ca *chunkAdapter) bool {
	q, ok := s.quotas[ca.tenant]
	if !ok {
		return false
	}
	return s.tenantResident[ca.tenant] <= q.GuaranteedBytes+q.BurstBytes
}

// evictFor frees resident, unpinned adapters until need chunk bytes
// fit: a first LRU pass takes only unprotected adapters (tenants over
// their burst envelope lose residency first), a second takes any
// unpinned one. Pinned adapters are never evicted. Within the
// evictWindow LRU-end candidates the one freeing the most actual bytes
// goes first — the marginal-cost ranking: evicting a fully-shared
// sibling frees nothing and costs a future dedup hit, so private
// tails go before warm shared prefixes.
func (s *Store) evictFor(need int64) {
	for pass := 0; pass < 2 && s.used+need > s.cfg.HostCapacity; pass++ {
		for s.used+need > s.cfg.HostCapacity {
			var window [chunkEvictWindow]*chunkAdapter
			n := 0
			for ca := s.root.next; ca != &s.root && n < s.evictWindow; ca = ca.next {
				if ca.pinned || (pass == 0 && s.protected(ca)) {
					continue
				}
				window[n] = ca
				n++
			}
			if n == 0 {
				break
			}
			victim := window[0]
			best := freeableBytes(victim)
			for i := 1; i < n; i++ {
				if f := freeableBytes(window[i]); f > best {
					victim, best = window[i], f
				}
			}
			s.evict(victim)
		}
	}
}

// evict removes one resident adapter from the tier, freeing every
// chunk its departure leaves unreferenced.
func (s *Store) evict(ca *chunkAdapter) {
	ca.prev.next = ca.next
	ca.next.prev = ca.prev
	ca.prev, ca.next = nil, nil
	ca.resident = false
	s.tenantResident[ca.tenant] -= ca.bytes
	var freed int64
	for _, c := range ca.chunks {
		c.refs--
		if c.refs == 0 && c.resident {
			c.resident = false
			s.used -= c.bytes
			freed += c.bytes
			s.stats.ChunkEvictions++
		}
	}
	s.stats.Evictions++
	s.stats.EvictedBytes += freed
}

// pinIfFree pins a resident adapter when its tenant has unspent
// guaranteed quota.
func (s *Store) pinIfFree(ca *chunkAdapter) {
	if ca.pinned {
		return
	}
	q, ok := s.quotas[ca.tenant]
	if !ok || q.GuaranteedBytes <= 0 || ca.bytes > q.GuaranteedBytes {
		return
	}
	if s.tenantPinned[ca.tenant]+ca.bytes <= q.GuaranteedBytes {
		ca.pinned = true
		s.tenantPinned[ca.tenant] += ca.bytes
		s.pinnedB += ca.bytes
	}
}

// promote rotates the tenant's quota pins onto a just-touched adapter:
// if the tenant has guaranteed bytes left the adapter is pinned
// outright; otherwise the tenant's least-recently-used pins are
// released until it fits. Recently-demanded adapters therefore hold
// the guaranteed residency — the pin set tracks the hot set as
// popularity drifts.
//
//valora:hotpath
func (s *Store) promote(ca *chunkAdapter) {
	if ca.pinned {
		return
	}
	q, ok := s.quotas[ca.tenant]
	if !ok || q.GuaranteedBytes <= 0 || ca.bytes > q.GuaranteedBytes {
		return
	}
	for s.tenantPinned[ca.tenant]+ca.bytes > q.GuaranteedBytes {
		v := s.lruPinned(ca.tenant, ca)
		if v == nil {
			return
		}
		v.pinned = false
		s.tenantPinned[ca.tenant] -= v.bytes
		s.pinnedB -= v.bytes
	}
	ca.pinned = true
	s.tenantPinned[ca.tenant] += ca.bytes
	s.pinnedB += ca.bytes
}

// lruPinned finds the tenant's least-recently-used pinned adapter
// other than skip.
//
//valora:hotpath
func (s *Store) lruPinned(tenant string, skip *chunkAdapter) *chunkAdapter {
	for ca := s.root.next; ca != &s.root; ca = ca.next {
		if ca != skip && ca.pinned && ca.tenant == tenant {
			return ca
		}
	}
	return nil
}

// familyPrefixKey is the synthetic blob key of a family's shared
// chunk prefix warm-set object.
func familyPrefixKey(family string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("famprefix:"))
	h.Write([]byte(family))
	return h.Sum64()
}
