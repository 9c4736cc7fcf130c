package serving

import (
	"fmt"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// Bounded-lookahead admission: a managed engine whose placement is
// decided only at epoch barriers.
//
// The classic managed engine (runManaged) may place a request after
// any instance step, so every step is a potential coupling point. The
// lookahead engine removes that coupling by construction: at each
// barrier, with every instance quiesced, the coordinator
//
//  1. folds in what the epoch produced (delivery-time sheds), returns
//     unconsumed reservations to the queue position-exactly
//     (TenantQueue.Restore) and refunds their charges,
//  2. replays the epoch's arrivals through admission in exact global
//     order, each at its own timestamp,
//  3. pops the queue in fair-share order and *reserves* up to
//     LookaheadConfig.Slots placements per instance, routing each pop
//     through the DispatchPolicy and parking it in the instance's
//     private reservedFeed.
//
// Mid-epoch, a reservation is consumed the moment its instance drops
// below the HighWater in-flight bound — the same backpressure test the
// classic dispatcher applies, evaluated from the instance's own state.
// Since nothing outside an instance gates its reservations, instances
// are independent for the whole epoch and advance one at a time on a
// sim.Shard; the horizon can stay coarse: the next arrival while the
// queue is empty, now+Quantum while it holds unreserved work.
//
// This is an opt-in admission semantics (SchedulingConfig.Lookahead),
// not a re-derivation of runManaged: placement revision happens at
// barrier granularity instead of after every instance step. Run and
// RunSharded both execute this engine inline; running its epochs on
// worker goroutines measured no faster than inline on a multi-core
// host, so the engine has no parallel mode.

// reservedFeed is one instance's reservation channel: the coordinator
// parks barrier-reserved placements here and the shard delivers them
// as the instance's in-flight count allows. A reservation whose
// deadline expired before its delivery moment is recorded in sheds
// rather than submitted — delivery moments are deterministic virtual
// times, so the shed set is too — and folded into the coordinator's
// accounting at the next barrier.
type reservedFeed struct {
	srv  *Server
	hw   int
	reqs []*sched.Request
	seqs []uint64
	cur  int
	shed []deliveryShed
}

type deliveryShed struct {
	req *sched.Request
	at  time.Duration
}

func (f *reservedFeed) push(r *sched.Request, seq uint64) {
	f.reqs = append(f.reqs, r)
	f.seqs = append(f.seqs, seq)
}

// deliverAt is the virtual time the head reservation would ingest at:
// the instance's next occurrence, or its current clock when idle.
func (f *reservedFeed) deliverAt() time.Duration {
	if at := f.srv.NextEventAt(); at != sim.Never {
		return at
	}
	return f.srv.Now()
}

func (f *reservedFeed) NextAt() time.Duration {
	if f.cur >= len(f.reqs) || f.srv.InFlight() >= f.hw {
		return sim.Never
	}
	return f.deliverAt()
}

func (f *reservedFeed) Deliver() error {
	at := f.deliverAt()
	r := f.reqs[f.cur]
	f.reqs[f.cur] = nil
	f.cur++
	if r.Deadline > 0 && at > r.Arrival+r.Deadline {
		f.shed = append(f.shed, deliveryShed{req: r, at: at})
		return nil
	}
	f.srv.Submit(r)
	return nil
}

// reset empties the feed for the next epoch, reusing capacity.
func (f *reservedFeed) reset() {
	f.reqs = f.reqs[:0]
	f.seqs = f.seqs[:0]
	f.cur = 0
}

// runManagedLookahead drives a managed cluster under bounded-lookahead
// admission. See the file comment for the protocol.
func (c *Cluster) runManagedLookahead(trace workload.Trace) (*Report, error) {
	cfg := c.sched
	la := cfg.Lookahead
	tq := sched.NewTenantQueue(cfg.FairShare, cfg.Tenants...)

	// Admission accounting. On a saturated trace nearly every request
	// passes through here, so each request's tenant name is resolved
	// to a sched.TenantRef exactly once and every per-request queue
	// operation and tally goes through the handle or its dense index —
	// the classic runner pays a string-keyed map lookup per operation
	// (two to three per shed request), which profiles as a top entry
	// of its admission time at scale.
	//
	//valora:hotpath per-arrival admission accounting
	type tenantCounts struct{ submitted, shed, shedSLO int }
	var counts []tenantCounts
	countsAt := func(idx int) *tenantCounts {
		for len(counts) <= idx {
			counts = append(counts, tenantCounts{})
		}
		return &counts[idx]
	}
	var shedTotal int
	shedRef := func(ref sched.TenantRef, r *sched.Request, now time.Duration) {
		r.Phase = sched.PhaseDone
		r.Finish = now
		shedTotal++
		tc := countsAt(ref.Index())
		tc.shed++
		if r.Deadline > 0 {
			tc.shedSLO++
		}
	}
	shed := func(r *sched.Request, now time.Duration) {
		shedRef(tq.Ref(r.Tenant), r, now)
	}
	// One drop callback for every ShedExpired sweep, parameterized
	// through shedNow: allocating the closure inline would malloc once
	// per arrival on the saturated path.
	var shedNow time.Duration
	dropExpired := func(x *sched.Request) { shed(x, shedNow) }

	// NewManagedCluster rejects Lookahead+Preemption; the preempt
	// handler records any requeue that slips through so the next
	// barrier fails the run instead of letting it silently diverge.
	var requeues int
	var requeueAt time.Duration
	var fleet sim.Shard
	feeds := make([]*reservedFeed, len(c.servers))
	for i, srv := range c.servers {
		feeds[i] = &reservedFeed{srv: srv, hw: cfg.HighWater}
		fleet.Add(srv, feeds[i])
		srv := srv
		srv.SetPreemptHandler(func(*sched.Request) {
			if requeues == 0 {
				requeueAt = srv.Now()
			}
			requeues++
		})
	}
	guard := func() error {
		if requeues > 0 {
			return fmt.Errorf("serving: lookahead run saw %d cross-shard preemption requeue(s) at t=%v; NewManagedCluster should have rejected this configuration",
				requeues, requeueAt)
		}
		return nil
	}

	// collectSheds folds the epoch's delivery-time expiries into the
	// shed accounting and refunds their reservation charges, in
	// instance order (delivery order within an instance).
	collectSheds := func() {
		for _, f := range feeds {
			for _, ds := range f.shed {
				ref := tq.Ref(ds.req.Tenant)
				shedRef(ref, ds.req, ds.at)
				ref.Refund(sched.RequestCost(ds.req))
			}
			f.shed = f.shed[:0]
		}
	}

	// returnUnconsumed hands reservations the epoch did not consume
	// back to the queue position-exactly and refunds their charges, so
	// the barrier's fair-share picture is as if they were never popped.
	returnUnconsumed := func() {
		for _, f := range feeds {
			for k := f.cur; k < len(f.reqs); k++ {
				r := f.reqs[k]
				ref := tq.Ref(r.Tenant)
				ref.Restore(r, f.seqs[k])
				ref.Refund(sched.RequestCost(r))
			}
			f.reset()
		}
	}

	handle := func(r *sched.Request) {
		now := r.Arrival
		ref := tq.Ref(r.Tenant) // registers even if every request below sheds
		countsAt(ref.Index()).submitted++
		shedNow = now
		tq.ShedExpired(now, dropExpired)
		switch {
		case cfg.EstimateService != nil && r.Deadline > 0 && cfg.EstimateService(r) > r.Deadline:
			shedRef(ref, r, now) // hopeless: no placement can meet the deadline
		case !ref.Push(r):
			shedRef(ref, r, now) // tenant queue cap: overload isolation
		}
	}

	// reserve pops the queue in fair-share order and pre-routes each
	// pick through the dispatch policy into an instance's feed, up to
	// Slots per instance, charging at reservation time so later picks
	// see the deficit the placement will create. Expired picks shed
	// uncharged, exactly like the classic dispatcher.
	var cands []*Server
	var candIdx []int
	reserve := func(now time.Duration) error {
		for tq.Len() > 0 {
			cands = cands[:0]
			candIdx = candIdx[:0]
			for i, srv := range c.servers {
				if len(feeds[i].reqs) < la.Slots {
					cands = append(cands, srv)
					candIdx = append(candIdx, i)
				}
			}
			if len(cands) == 0 {
				return nil // every instance holds a full epoch's reservations
			}
			r, seq := tq.PopReserved()
			if r == nil {
				return nil
			}
			ref := tq.Ref(r.Tenant)
			if r.Deadline > 0 && now > r.Arrival+r.Deadline {
				shedRef(ref, r, now)
				continue
			}
			j := c.dispatch.Pick(r, cands)
			if j < 0 || j >= len(cands) {
				return fmt.Errorf("serving: dispatch %s picked instance %d of %d candidates", c.dispatch.Name(), j, len(cands))
			}
			feeds[candIdx[j]].push(r, seq)
			ref.Charge(sched.RequestCost(r))
		}
		return nil
	}

	ordered := arrivalOrder(trace)
	idx := 0
	now := time.Duration(0)
	for {
		// Barrier: every instance is quiesced.
		collectSheds()
		returnUnconsumed()
		if err := guard(); err != nil {
			return nil, err
		}
		for idx < len(ordered) && ordered[idx].Arrival <= now {
			handle(ordered[idx])
			idx++
		}
		shedNow = now
		tq.ShedExpired(now, dropExpired)
		if err := reserve(now); err != nil {
			return nil, err
		}
		// Horizon: while the queue still holds unreserved work the epoch
		// is Quantum-bounded (arrivals landing mid-epoch are replayed at
		// the next barrier); with an empty queue the next arrival is the
		// only coupling point; with neither, drain to completion.
		horizon := sim.Never
		if tq.Len() > 0 {
			horizon = now + la.Quantum
		} else if idx < len(ordered) {
			horizon = ordered[idx].Arrival
		}
		if err := fleet.AdvanceTo(horizon); err != nil {
			return nil, err
		}
		if horizon == sim.Never {
			break
		}
		now = horizon
	}
	collectSheds()
	if err := guard(); err != nil {
		return nil, err
	}
	if tq.Len() > 0 {
		return nil, fmt.Errorf("serving: lookahead run ended with %d requests stranded in the cluster queue", tq.Len())
	}
	for i, f := range feeds {
		if f.cur < len(f.reqs) {
			return nil, fmt.Errorf("serving: lookahead run ended with %d reservations undelivered on instance %d", len(f.reqs)-f.cur, i)
		}
	}

	reports := make([]*Report, len(c.servers))
	for i, srv := range c.servers {
		rep, err := srv.Drain()
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	mode := "fifo+lookahead"
	if cfg.FairShare {
		mode = "fair-share+lookahead"
	}
	agg := c.aggregate(reports, fmt.Sprintf("%s x%d [%s, %s]", c.servers[0].Name(), len(c.servers), c.dispatch.Name(), mode))
	agg.Requests += shedTotal // shed requests never reached an instance
	agg.Shed = shedTotal
	agg.PeakInstances = len(c.servers)
	submitted := make(map[string]int, len(counts))
	shedByTenant := make(map[string]int, len(counts))
	shedSLO := make(map[string]int, len(counts))
	for i, tc := range tq.Tenants() {
		if i >= len(counts) {
			break // registered but never seen a request
		}
		submitted[tc.Name] = counts[i].submitted
		shedByTenant[tc.Name] = counts[i].shed
		shedSLO[tc.Name] = counts[i].shedSLO
	}
	c.fillTenantReports(agg, tq, submitted, shedByTenant, shedSLO)
	return agg, nil
}
