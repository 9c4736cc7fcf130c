//valora:parallel one-shot parallel drain: this file owns the worker goroutines that advance independent processes to completion, claimed whole from a single atomic cursor; each process is advanced by exactly one worker, so the interleaving is unobservable
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the multi-process counterpart of Timeline for fleets
// whose processes never observe one another between coupling points.
// A Shard holds such processes, each with an optional private input
// Feed, and advances them one at a time up to a caller-chosen horizon
// (cache-friendly: one process's working set stays hot through its
// whole advance). Because the processes are independent, the order
// they advance in is unobservable and the result is bit-identical to
// the sequential Timeline's.
//
// Two callers use it. The bounded-lookahead admission engine advances
// one shard inline, epoch by epoch, with AdvanceTo and re-plans at
// each horizon. The partitioned replay engine pre-routes every
// arrival into per-process feeds and calls Drain once, which hands
// whole processes to a pool of workers.

// Feed is a time-ordered private input stream for one process: the
// shard delivers each item when the process's progress reaches the
// item's timestamp, replicating the Timeline rule that an external
// event at t runs before any process step scheduled at or after t.
type Feed interface {
	// NextAt reports the delivery time of the head item, or Never when
	// the feed is exhausted (or delivery is currently blocked).
	NextAt() time.Duration
	// Deliver hands the head item to its process and advances the
	// feed. It must not be called when NextAt is Never.
	Deliver() error
}

// Shard groups mutually independent processes, each with an optional
// private feed. The zero value is an empty shard.
type Shard struct {
	procs []Process
	feeds []Feed
}

// Add registers a process and its private feed (nil for processes fed
// externally between horizons), returning its index.
func (sh *Shard) Add(p Process, f Feed) int {
	sh.procs = append(sh.procs, p)
	sh.feeds = append(sh.feeds, f)
	return len(sh.procs) - 1
}

// AdvanceTo advances every process, in index order, while its next
// occurrence is strictly before horizon (Never = no bound: drain
// fully). Occurrences at exactly the horizon are left for the caller's
// next call — they must observe whatever the caller does in between.
// Ties between a feed delivery and a process step at the same time go
// to the feed, mirroring Timeline's event-before-step rule. The first
// failing process's error is returned.
func (sh *Shard) AdvanceTo(horizon time.Duration) error {
	for i := range sh.procs {
		if err := sh.advanceProc(i, horizon); err != nil {
			return err
		}
	}
	return nil
}

// Drain advances every process to completion on up to workers
// goroutines. Workers claim whole processes from one atomic cursor, so
// each process is advanced by exactly one worker and its history is
// what AdvanceTo(Never) would produce. Every process runs its advance
// even when another fails, and the error of the lowest-index failing
// process is returned, so a failing drain fails identically whatever
// the worker interleaving. workers <= 1 drains inline.
func (sh *Shard) Drain(workers int) error {
	n := len(sh.procs)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return sh.AdvanceTo(Never)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				errs[k] = sh.advanceProc(k, Never)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *Shard) advanceProc(i int, horizon time.Duration) error {
	p, f := sh.procs[i], sh.feeds[i]
	for {
		pa := p.NextEventAt()
		fa := Never
		if f != nil {
			fa = f.NextAt()
		}
		var at time.Duration
		feedNext := false
		switch {
		case fa == Never && pa == Never:
			return nil
		case pa == Never:
			at, feedNext = fa, true
		case fa == Never:
			at = pa
		case fa <= pa: // event-before-step on ties
			at, feedNext = fa, true
		default:
			at = pa
		}
		if horizon != Never && at >= horizon {
			return nil
		}
		if feedNext {
			if err := f.Deliver(); err != nil {
				return err
			}
			continue
		}
		progressed, err := p.Step()
		if err != nil {
			return err
		}
		if !progressed {
			return fmt.Errorf("sim: shard process %d advertised an event at %v but made no progress", i, at)
		}
	}
}
