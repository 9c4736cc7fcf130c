package sim

import (
	"fmt"
	"testing"
	"time"
)

// shardProc is a miniature serving instance: jobs arrive on a queue,
// each job runs for a number of steps, every step advances the local
// clock by a fixed iteration time and appends to the proc's log. Its
// NextEventAt/Step contract mirrors serving.Server.
type shardProc struct {
	id    int
	clock time.Duration
	queue []shardJob
	rem   int
	iter  time.Duration
	log   []string
}

type shardJob struct {
	at    time.Duration
	steps int
}

func (p *shardProc) submit(j shardJob) { p.queue = append(p.queue, j) }

func (p *shardProc) NextEventAt() time.Duration {
	if p.rem > 0 {
		return p.clock
	}
	if len(p.queue) > 0 {
		if p.queue[0].at < p.clock {
			return p.clock
		}
		return p.queue[0].at
	}
	return Never
}

func (p *shardProc) Step() (bool, error) {
	if p.rem == 0 {
		if len(p.queue) == 0 {
			return false, nil
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		if j.at > p.clock {
			p.clock = j.at
		}
		p.rem = j.steps
	}
	p.clock += p.iter
	p.rem--
	p.log = append(p.log, fmt.Sprintf("p%d@%v", p.id, p.clock))
	return true, nil
}

// jobFeed delivers a pre-routed job list to one proc.
type jobFeed struct {
	proc *shardProc
	jobs []shardJob
	cur  int
}

func (f *jobFeed) NextAt() time.Duration {
	if f.cur >= len(f.jobs) {
		return Never
	}
	return f.jobs[f.cur].at
}

func (f *jobFeed) Deliver() error {
	f.proc.submit(f.jobs[f.cur])
	f.cur++
	return nil
}

// genJobs builds a deterministic per-proc job schedule.
func genJobs(procs int) [][]shardJob {
	out := make([][]shardJob, procs)
	for i := 0; i < procs; i++ {
		at := time.Duration(i+1) * time.Millisecond
		for j := 0; j < 20; j++ {
			out[i] = append(out[i], shardJob{at: at, steps: 1 + (i+j)%3})
			at += time.Duration(3+((i*7+j*13)%11)) * time.Millisecond
		}
	}
	return out
}

func newProcs(n int, iter time.Duration) []*shardProc {
	procs := make([]*shardProc, n)
	for i := range procs {
		procs[i] = &shardProc{id: i, iter: iter}
	}
	return procs
}

// runSequential replays the job schedule on a Timeline — the reference
// observable order.
func runSequential(t *testing.T, jobs [][]shardJob) []*shardProc {
	t.Helper()
	procs := newProcs(len(jobs), 2*time.Millisecond)
	tl := &Timeline{}
	tl.Handle = func(e *Event) error {
		d := e.Payload.([2]int)
		procs[d[0]].submit(jobs[d[0]][d[1]])
		tl.Refresh(d[0])
		return nil
	}
	for i := range procs {
		tl.Add(procs[i])
	}
	for i, js := range jobs {
		for j := range js {
			tl.Schedule(js[j].at, [2]int{i, j})
		}
	}
	if err := tl.Run(); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return procs
}

func checkSameLogs(t *testing.T, want, got []*shardProc, label string) {
	t.Helper()
	for i := range want {
		if len(want[i].log) != len(got[i].log) {
			t.Fatalf("%s: proc %d made %d steps, sequential made %d", label, i, len(got[i].log), len(want[i].log))
		}
		for j := range want[i].log {
			if want[i].log[j] != got[i].log[j] {
				t.Fatalf("%s: proc %d step %d = %q, sequential %q", label, i, j, got[i].log[j], want[i].log[j])
			}
		}
		if want[i].clock != got[i].clock {
			t.Fatalf("%s: proc %d final clock %v, sequential %v", label, i, got[i].clock, want[i].clock)
		}
	}
}

// TestShardFeedMatchesTimeline drains fed processes in one parallel
// drain and checks every process's observable history is bit-identical
// to the sequential Timeline, across worker counts (1 drains inline; 8
// exceeds the process count and is clamped).
func TestShardFeedMatchesTimeline(t *testing.T) {
	jobs := genJobs(8)
	want := runSequential(t, jobs)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		procs := newProcs(len(jobs), 2*time.Millisecond)
		var sh Shard
		for i, p := range procs {
			sh.Add(p, &jobFeed{proc: p, jobs: jobs[i]})
		}
		if err := sh.Drain(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkSameLogs(t, want, procs, fmt.Sprintf("workers=%d", workers))
	}
}

// TestShardEpochBarriers splits the same run into many epochs (the
// caller submits each job at its own horizon instead of using feeds)
// and checks the result is still identical: occurrences at exactly the
// horizon stay on the far side of it.
func TestShardEpochBarriers(t *testing.T) {
	jobs := genJobs(5)
	want := runSequential(t, jobs)

	// Flatten arrivals into (at, proc, job) in canonical order.
	type arr struct {
		at        time.Duration
		proc, job int
	}
	var arrivals []arr
	for i, js := range jobs {
		for j := range js {
			arrivals = append(arrivals, arr{js[j].at, i, j})
		}
	}
	for i := 1; i < len(arrivals); i++ { // insertion sort, stable on at
		for j := i; j > 0 && arrivals[j-1].at > arrivals[j].at; j-- {
			arrivals[j-1], arrivals[j] = arrivals[j], arrivals[j-1]
		}
	}

	procs := newProcs(len(jobs), 2*time.Millisecond)
	var sh Shard
	for _, p := range procs {
		sh.Add(p, nil)
	}
	idx := 0
	for idx < len(arrivals) {
		horizon := arrivals[idx].at
		if err := sh.AdvanceTo(horizon); err != nil {
			t.Fatal(err)
		}
		for idx < len(arrivals) && arrivals[idx].at == horizon {
			a := arrivals[idx]
			procs[a.proc].submit(jobs[a.proc][a.job])
			idx++
		}
	}
	if err := sh.AdvanceTo(Never); err != nil {
		t.Fatal(err)
	}
	checkSameLogs(t, want, procs, "epoch barriers")
}

// errProc fails its Step; used to check deterministic error selection.
type errProc struct{ id int }

func (p *errProc) NextEventAt() time.Duration { return time.Millisecond }
func (p *errProc) Step() (bool, error)        { return false, fmt.Errorf("proc %d boom", p.id) }

// TestAdvanceAllDeterministicError checks a parallel drain reports the
// lowest-index failing process regardless of which worker claimed it:
// every process fails, concurrently, on four workers.
func TestAdvanceAllDeterministicError(t *testing.T) {
	for round := 0; round < 5; round++ {
		var sh Shard
		for i := 0; i < 8; i++ {
			sh.Add(&errProc{id: i}, nil)
		}
		if err := sh.Drain(4); err == nil || err.Error() != "proc 0 boom" {
			t.Fatalf("round %d: got error %v, want proc 0's", round, err)
		}
	}
}

// TestAdvanceAllInlineError checks the inline paths (AdvanceTo and a
// one-worker Drain) report the same error as the parallel drain.
func TestAdvanceAllInlineError(t *testing.T) {
	var sh Shard
	for i := 0; i < 3; i++ {
		sh.Add(&errProc{id: i}, nil)
	}
	if err := sh.AdvanceTo(Never); err == nil || err.Error() != "proc 0 boom" {
		t.Fatalf("AdvanceTo: got error %v, want proc 0's", err)
	}
	if err := sh.Drain(1); err == nil || err.Error() != "proc 0 boom" {
		t.Fatalf("Drain(1): got error %v, want proc 0's", err)
	}
}

// TestWorkStealingUnevenShards gives one process almost all of the
// work and runs part of the schedule in inline epochs before a
// two-worker drain finishes it: whichever worker claims the heavy
// process, and wherever the epochs left each process, the histories
// must match the sequential reference.
func TestWorkStealingUnevenShards(t *testing.T) {
	jobs := genJobs(8)
	for i := 1; i < len(jobs); i++ {
		jobs[i] = jobs[i][:2]
	}
	want := runSequential(t, jobs)

	procs := newProcs(len(jobs), 2*time.Millisecond)
	var sh Shard
	for i, p := range procs {
		sh.Add(p, &jobFeed{proc: p, jobs: jobs[i]})
	}
	for h := 5 * time.Millisecond; h <= 40*time.Millisecond; h += 5 * time.Millisecond {
		if err := sh.AdvanceTo(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Drain(2); err != nil {
		t.Fatal(err)
	}
	checkSameLogs(t, want, procs, "uneven drain")
}

// TestShardNoProgressError mirrors Timeline's liveness contract.
func TestShardNoProgressError(t *testing.T) {
	var sh Shard
	sh.Add(stuckProc{}, nil)
	if err := sh.AdvanceTo(Never); err == nil {
		t.Fatal("expected a no-progress error")
	}
}

type stuckProc struct{}

func (stuckProc) NextEventAt() time.Duration { return time.Second }
func (stuckProc) Step() (bool, error)        { return false, nil }
