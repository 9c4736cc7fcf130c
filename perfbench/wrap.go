package main

import (
	"time"

	"valora/internal/atmm"
	"valora/internal/lora"
	"valora/internal/sched"
	"valora/internal/serving"
)

// The timing wrappers measure a layer from outside: each forwards every
// call unchanged to the wrapped implementation and adds its wall time
// and call count to counters of its own. One wrapper serves one serving
// instance (the dispatch wrapper one cluster), so shard goroutines never
// share a counter.

// layerCounter is a call count plus the wall time those calls took.
type layerCounter struct {
	calls int64
	ns    int64
}

func (c *layerCounter) add(start time.Time) {
	c.calls++
	c.ns += int64(time.Since(start))
}

func (c *layerCounter) merge(o layerCounter) {
	c.calls += o.calls
	c.ns += o.ns
}

// meanNS reports the mean wall time per call.
func (c layerCounter) meanNS() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// timedPolicy wraps sched.Policy.Decide.
type timedPolicy struct {
	inner sched.Policy
	layerCounter
	batched int64 // sum of len(Decision.Batch)
	evicts  int64 // sum of len(Decision.Evict)
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(it sched.Iteration) sched.Decision {
	start := time.Now()
	d := p.inner.Decide(it)
	p.add(start)
	p.batched += int64(len(d.Batch))
	p.evicts += int64(len(d.Evict))
	return d
}

// timedOperator wraps atmm.Operator.LayerTime.
type timedOperator struct {
	inner atmm.Operator
	layerCounter
}

func (o *timedOperator) Name() string { return o.inner.Name() }

func (o *timedOperator) LayerTime(b atmm.Batch) (time.Duration, error) {
	start := time.Now()
	d, err := o.inner.LayerTime(b)
	o.add(start)
	return d, err
}

// timedSwitcher wraps lora.Switcher; SwitchTime and MergeTime share one
// counter.
type timedSwitcher struct {
	inner lora.Switcher
	layerCounter
}

func (s *timedSwitcher) Name() string { return s.inner.Name() }

func (s *timedSwitcher) SwitchTime(from, to lora.State) time.Duration {
	start := time.Now()
	d := s.inner.SwitchTime(from, to)
	s.add(start)
	return d
}

func (s *timedSwitcher) MergeTime(rank int) time.Duration {
	start := time.Now()
	d := s.inner.MergeTime(rank)
	s.add(start)
	return d
}

// timedDispatch wraps serving.DispatchPolicy.Pick.
type timedDispatch struct {
	inner serving.DispatchPolicy
	layerCounter
}

func (d *timedDispatch) Name() string { return d.inner.Name() }

func (d *timedDispatch) Pick(r *sched.Request, servers []*serving.Server) int {
	start := time.Now()
	i := d.inner.Pick(r, servers)
	d.add(start)
	return i
}

// timedStatelessDispatch keeps the serving.StatelessDispatch marker of
// the policy it wraps: without it the sharded engine would leave its
// partitioned mode for the epoch-barrier mode and the traced run would
// measure a different engine.
type timedStatelessDispatch struct{ timedDispatch }

func (d *timedStatelessDispatch) StatelessDispatch() {}

// wrapDispatch returns the timing wrapper for inner and its counters.
func wrapDispatch(inner serving.DispatchPolicy) (serving.DispatchPolicy, *layerCounter) {
	if _, ok := inner.(serving.StatelessDispatch); ok {
		w := &timedStatelessDispatch{timedDispatch{inner: inner}}
		return w, &w.layerCounter
	}
	w := &timedDispatch{inner: inner}
	return w, &w.layerCounter
}

// instanceProbes holds the wrappers installed on one serving instance.
type instanceProbes struct {
	policy   *timedPolicy
	operator *timedOperator
	switcher *timedSwitcher
}

// probes collects every wrapper of the traced clusters of a run. A
// cluster's build function runs sequentially before its replay, so
// appending here needs no lock.
type probes struct {
	instances  []instanceProbes
	dispatches []*layerCounter
}

// wrap replaces opts' policy, operator and switcher with timing wrappers.
func (p *probes) wrap(opts serving.Options) serving.Options {
	ip := instanceProbes{
		policy:   &timedPolicy{inner: opts.Policy},
		operator: &timedOperator{inner: opts.Operator},
		switcher: &timedSwitcher{inner: opts.Switcher},
	}
	p.instances = append(p.instances, ip)
	opts.Policy, opts.Operator, opts.Switcher = ip.policy, ip.operator, ip.switcher
	return opts
}

// layerTotals sums the counters of every wrapper after the replays.
type layerTotals struct {
	decide, layerTime, switcher, dispatch layerCounter
	batched, evicts                       int64
}

func (p *probes) totals() layerTotals {
	var t layerTotals
	for _, ip := range p.instances {
		t.decide.merge(ip.policy.layerCounter)
		t.batched += ip.policy.batched
		t.evicts += ip.policy.evicts
		t.layerTime.merge(ip.operator.layerCounter)
		t.switcher.merge(ip.switcher.layerCounter)
	}
	for _, d := range p.dispatches {
		t.dispatch.merge(*d)
	}
	return t
}
