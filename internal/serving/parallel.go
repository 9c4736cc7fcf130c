package serving

import (
	"fmt"
	"sort"
	"time"

	"valora/internal/sched"
	"valora/internal/sim"
	"valora/internal/workload"
)

// This file is the parallel counterpart of Cluster.Run for the one
// configuration where parallelism pays: partitioned replay. An
// unmanaged fleet with stateless dispatch and no registry store
// couples its instances only through routing, and routing depends only
// on the request sequence. It is therefore precomputed once, each
// instance's private arrival stream becomes a sim.Feed, and the
// instances drain to completion on worker goroutines with no further
// synchronization. The report is bit-identical to Run's, so the worker
// count only changes wall-clock time.
//
// Every other configuration runs on the sequential engines. Dispatch
// that reads live instance state, admission with fair-share placement,
// bounded-lookahead admission, autoscaling, preemption and a shared
// registry store all couple instances at arrivals or after steps, and
// barrier-synchronized sharded runners for them never beat the
// sequential engine on a multi-core host: their barriers cost more
// than the instance work between them.

// partitioned reports whether a run can take the partitioned path: an
// unmanaged fleet, stateless dispatch, and no registry store. The store
// is shared mutable state touched on the instance step path
// (resolveTiered); its serialized link model makes fetch order
// observable, so only the global sequential order reproduces it.
func (c *Cluster) partitioned() bool {
	if c.sched != nil {
		return false
	}
	if _, ok := c.dispatch.(StatelessDispatch); !ok {
		return false
	}
	for _, srv := range c.servers {
		if srv.opts.Store != nil {
			return false
		}
	}
	return true
}

// RunSharded replays a trace like Run, draining the fleet on up to
// shards worker goroutines when the run can be partitioned. The report
// is bit-identical to Run's for every configuration; configurations
// that cannot be partitioned run on the sequential engine. Shard counts
// above the instance count are clamped.
func (c *Cluster) RunSharded(trace workload.Trace, shards int) (*Report, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serving: shard count %d < 1", shards)
	}
	if !c.partitioned() {
		return c.Run(trace)
	}
	return c.runPartitioned(trace, shards)
}

// requestFeed adapts one instance's pre-routed arrival stream to
// sim.Feed.
type requestFeed struct {
	srv  *Server
	reqs []*sched.Request
	cur  int
}

func (f *requestFeed) NextAt() time.Duration {
	if f.cur >= len(f.reqs) {
		return sim.Never
	}
	return f.reqs[f.cur].Arrival
}

func (f *requestFeed) Deliver() error {
	f.srv.Submit(f.reqs[f.cur])
	f.cur++
	return nil
}

// arrivalOrder returns the trace in the order the sequential timeline
// handles it: ascending arrival time, FIFO among ties (EventQueue
// seq). Generators emit sorted traces, so the common case is a no-op.
func arrivalOrder(trace workload.Trace) workload.Trace {
	// Plain loop rather than sort.SliceIsSorted: the per-element
	// closure call is measurable on million-request traces.
	//
	//valora:hotpath sortedness scan over the full trace
	sorted := true
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			sorted = false
			break
		}
	}
	if sorted {
		return trace
	}
	out := make(workload.Trace, len(trace))
	copy(out, trace)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Arrival < out[j].Arrival
	})
	return out
}

// runPartitioned is the barrier-free fast path: dispatch is replayed
// over the arrival-ordered trace once (stateless policies observe
// nothing else), yielding each instance's exact request subsequence;
// the instances then drain to completion on up to shards workers with
// no further synchronization. Beyond thread parallelism this also
// removes the global event heap — a million-arrival heap collapses
// into per-instance cursor feeds — and lets each instance's working
// set stay cache-hot through its whole drain, which is why even a
// single-CPU host sees a large speedup.
func (c *Cluster) runPartitioned(trace workload.Trace, shards int) (*Report, error) {
	ordered := arrivalOrder(trace)
	parts := make([][]*sched.Request, len(c.servers))
	for i := range parts {
		parts[i] = make([]*sched.Request, 0, len(trace)/len(c.servers)+1)
	}
	for _, r := range ordered {
		i := c.dispatch.Pick(r, c.servers)
		if i < 0 || i >= len(c.servers) {
			return nil, fmt.Errorf("serving: dispatch %s picked instance %d of %d", c.dispatch.Name(), i, len(c.servers))
		}
		parts[i] = append(parts[i], r)
	}
	var fleet sim.Shard
	for i, srv := range c.servers {
		fleet.Add(srv, &requestFeed{srv: srv, reqs: parts[i]})
	}
	if err := fleet.Drain(shards); err != nil {
		return nil, err
	}
	return c.drainAggregate()
}
