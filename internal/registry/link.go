package registry

import "time"

// transfer is one chunk's journey over a registry link. A transfer is
// either in service (start <= now; the link serializes, so at most the
// queue head can be) or queued with a provisional schedule that every
// enqueue re-derives under the fair-share discipline.
type transfer struct {
	ch        *chunk
	tenant    string
	demand    bool  // demand-class (a queued request waits on it)
	seq       int64 // global enqueue order, the FIFO tie-break
	scheduled bool  // start/done assigned (zero times are valid, so a flag)
	start     time.Duration
	done      time.Duration
}

// link is one registry replica's serialized transfer pipe with
// per-tenant weighted fair queuing: when the wire frees up, the next
// transfer comes from the eligible tenant with the least weighted
// service so far (bytes served / weight), demand class before prefetch
// class within a tenant, FIFO within a class. One tenant's cold
// prefetch sweep therefore cannot push another tenant's demand fetches
// to the back of the queue — each tenant's backlog drains at its
// weighted share of the link. With a single flow in a single class
// (a whole-blob store) the discipline is plain FIFO.
type link struct {
	id    int
	queue []*transfer // schedule order; queue[0] may be in service
	// served accumulates weighted bytes served per tenant (the fair-
	// share basis). Only indexed, never ranged: iteration happens over
	// the queue slice, so the schedule is deterministic.
	served  map[string]float64
	pending int64         // bytes queued but not yet completed
	free    time.Duration // when the last completed transfer left the wire

	bandwidth float64       // bytes/second
	latency   time.Duration // charged on the wire with every transfer
	weights   map[string]float64
	tags      []flowTag // reschedule scratch, reused across calls
}

// weightOf resolves a tenant's fair-share weight (default 1).
func weightOf(weights map[string]float64, tenant string) float64 {
	if w, ok := weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// enqueue adds a transfer to the link and re-derives the schedule. A
// tenant arriving with an empty per-link backlog has its service tag
// bumped to the least tag among currently-backlogged tenants (the
// start-time fair-queuing arrival rule): an idle spell earns no
// banked deficit, so a freshly-arriving sweep cannot monopolize the
// wire until it "catches up" — which is exactly how it would starve
// the other tenants' demand fetches.
func (l *link) enqueue(t *transfer, now time.Duration) {
	backlogged := false
	for _, q := range l.queue {
		if q.tenant == t.tenant {
			backlogged = true
			break
		}
	}
	if !backlogged && len(l.queue) > 0 {
		minTag := l.served[l.queue[0].tenant]
		for _, q := range l.queue[1:] {
			minTag = min(minTag, l.served[q.tenant])
		}
		if l.served[t.tenant] < minTag {
			l.served[t.tenant] = minTag
		}
	}
	l.queue = append(l.queue, t)
	l.pending += t.ch.bytes
	l.reschedule(now)
}

// flowTag is one tenant's weighted service during a reschedule:
// lifetime served bytes plus what the schedule being derived has
// assigned it so far. Both are already weight-normalized (bytes/weight
// accumulated at pop and below), so tags compare directly.
type flowTag struct {
	tenant       string
	served, virt float64
}

// tag finds (or starts) a tenant's entry in the reschedule scratch.
func (l *link) tag(tenant string) *flowTag {
	for i := range l.tags {
		if l.tags[i].tenant == tenant {
			return &l.tags[i]
		}
	}
	l.tags = append(l.tags, flowTag{tenant: tenant, served: l.served[tenant]})
	return &l.tags[len(l.tags)-1]
}

// before reports whether transfer a goes on the wire before b: per
// tenant, demand first then seq; among tenants, the least weighted
// service, tie-broken by tenant name. The order is total, so the
// schedule is a pure function of the queue's contents.
func (l *link) before(a, b *transfer) bool {
	if a.tenant == b.tenant {
		return transferClassLess(a, b)
	}
	aw, bw := l.service(a.tenant), l.service(b.tenant)
	return aw < bw || (aw == bw && a.tenant < b.tenant)
}

// service reports a tenant's weighted service so far.
func (l *link) service(tenant string) float64 {
	t := l.tag(tenant)
	return t.served + t.virt
}

// reschedule re-derives the fair-share schedule from now: the transfer
// already on the wire (head with start <= now) keeps its slot, every
// queued transfer behind it is re-ordered by weighted fair queuing and
// its start/done recomputed back-to-back, never starting before the
// wire frees. Transfer time is the link latency plus bytes/bandwidth:
// a chunked store charges its per-fetch RemoteLatency once per adapter
// at completion instead, so its links have zero latency.
func (l *link) reschedule(now time.Duration) {
	keep := 0
	free := max(now, l.free)
	if len(l.queue) > 0 && l.queue[0].scheduled && l.queue[0].start <= now {
		keep = 1
		free = l.queue[0].done
	}
	rest := l.queue[keep:]
	if len(rest) == 0 {
		return
	}
	l.tags = l.tags[:0]
	if keep == 1 {
		// The in-service transfer is charged to served only at pop, so
		// charge it here while it occupies the wire to keep its tenant
		// from double-dipping.
		h := l.queue[0]
		l.tag(h.tenant).virt += float64(h.ch.bytes) / weightOf(l.weights, h.tenant)
	}
	// Selection sort under the fair-share order: position k gets the
	// first transfer of the remaining schedule.
	for k := range rest {
		best := k
		for i := k + 1; i < len(rest); i++ {
			if l.before(rest[i], rest[best]) {
				best = i
			}
		}
		rest[k], rest[best] = rest[best], rest[k]
		t := rest[k]
		t.scheduled = true
		t.start = free
		t.done = free + l.latency + time.Duration(float64(t.ch.bytes)/l.bandwidth*float64(time.Second))
		free = t.done
		l.tag(t.tenant).virt += float64(t.ch.bytes) / weightOf(l.weights, t.tenant)
	}
}

// transferClassLess orders two same-tenant transfers: demand class
// first, FIFO (enqueue seq) within a class.
func transferClassLess(a, b *transfer) bool {
	if a.demand != b.demand {
		return a.demand
	}
	return a.seq < b.seq
}

// head reports the link's next completion, or false when idle.
func (l *link) head() (*transfer, bool) {
	if len(l.queue) == 0 {
		return nil, false
	}
	return l.queue[0], true
}

// pop completes the head transfer, charging its tenant's weighted
// service.
func (l *link) pop() *transfer {
	t := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	l.pending -= t.ch.bytes
	l.free = t.done
	l.served[t.tenant] += float64(t.ch.bytes) / weightOf(l.weights, t.tenant)
	return t
}
