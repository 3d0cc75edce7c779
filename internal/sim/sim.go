// Package sim implements a deterministic discrete-event simulator used to
// model the execution of distributed training steps on a GPU cluster.
//
// The simulator models two kinds of entities:
//
//   - Resources: serial FIFO executors with an optional data rate. A GPU
//     compute stream, a NIC, and an NVSwitch port are all resources. A
//     resource executes one task at a time; queued tasks run in the order
//     they became ready (FIFO), which matches the in-order stream semantics
//     of CUDA streams and NCCL channels that the paper's systems rely on.
//
//   - Tasks: units of work with explicit dependencies. A task either has a
//     fixed duration (kernel time from a cost model) or a size in bytes
//     (transfer time = size / resource rate + per-message latency). Tasks
//     with no resource complete instantly once their dependencies resolve
//     and act as barriers / join points.
//
// The engine is deterministic: identical task graphs produce identical
// schedules. Completions at the same simulated time are processed in the
// order the tasks started (the push order of their events), not in
// creation order; tasks ready when Run begins start in creation order.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time = float64

// Kind classifies a task for tracing and accounting.
type Kind uint8

// Task kinds. Barrier tasks carry no work; the remaining kinds mirror the
// operation classes in the paper's timeline analysis (Fig. 12).
const (
	KindBarrier Kind = iota
	KindCompute
	KindIntraComm
	KindInterComm
	KindMemOp
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindCompute:
		return "compute"
	case KindIntraComm:
		return "intra-comm"
	case KindInterComm:
		return "inter-comm"
	case KindMemOp:
		return "mem"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

type taskState uint8

const (
	statePending taskState = iota // waiting on dependencies
	stateQueued                   // dependencies met, waiting for resource
	stateRunning
	stateDone
)

// Resource is a serial FIFO executor. Rate is in bytes/second and is used
// for tasks that specify Size; it may be zero for pure-duration resources
// such as compute streams.
type Resource struct {
	Name ResourceName
	Rate float64 // bytes per second; 0 means duration-only resource
	// Latency is a fixed per-task overhead added to every task executed on
	// this resource (e.g. NCCL kernel launch, RDMA message setup).
	Latency Time
	// Speed scales this resource's effective execution rate: a task's work
	// time (duration plus rated transfer time, but not Latency) is divided
	// by Speed. Zero or one means nominal speed; 0.5 models a degraded
	// executor running at half rate (a throttled GPU, a flapping NIC).
	// The fault-injection layer sets this; healthy simulations leave it 0.
	Speed float64

	id    int
	busy  bool
	queue []*Task

	// BusyTime accumulates the total time this resource spent executing
	// tasks, for utilization reporting.
	BusyTime Time
}

// Utilization returns the fraction of [0, makespan] this resource was busy.
func (r *Resource) Utilization(makespan Time) float64 {
	if makespan <= 0 {
		return 0
	}
	return r.BusyTime / makespan
}

// Task is a schedulable unit of work.
type Task struct {
	Label Label
	Kind  Kind
	state taskState // packed beside Kind, so a Task fits the 144-byte size class
	// Rank identifies the device this task belongs to, for tracing.
	Rank int
	// Duration is a fixed execution time. Used when Size is zero.
	Duration Time
	// Size is a transfer size in bytes; execution time is Size/res.Rate.
	Size float64

	id    int32
	deps  int32
	res   *Resource
	succs []*Task

	// Start and End are filled in by Run.
	Start, End Time
}

// After declares that t runs only once all of the given tasks complete.
// Nil entries are ignored so callers can chain optional stages.
func (t *Task) After(deps ...*Task) *Task {
	for _, d := range deps {
		if d == nil {
			continue
		}
		d.succs = append(d.succs, t)
		t.deps++
	}
	return t
}

// Engine owns resources and tasks and advances simulated time.
type Engine struct {
	now       Time
	tasks     []*Task
	resources []*Resource
	events    eventHeap
	eventSeq  int32
	ran       bool

	// OnTaskDone, if set, is invoked after each task finishes, in
	// completion order. Used by the trace package.
	OnTaskDone func(t *Task)
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{}
}

// NewResource registers a serial FIFO resource.
func (e *Engine) NewResource(name ResourceName, rate float64) *Resource {
	r := &Resource{Name: name, Rate: rate, id: len(e.resources)}
	e.resources = append(e.resources, r)
	return r
}

// Resources returns all registered resources in creation order.
func (e *Engine) Resources() []*Resource { return e.resources }

// Tasks returns all registered tasks in creation order.
func (e *Engine) Tasks() []*Task { return e.tasks }

// NewTask registers a task. A nil resource makes the task a zero-cost
// barrier unless Duration is set, in which case it models unresourced
// latency (e.g. host-side bookkeeping).
func (e *Engine) NewTask(label Label, kind Kind, rank int, res *Resource) *Task {
	t := &Task{Label: label, Kind: kind, Rank: rank, res: res, id: int32(len(e.tasks))}
	e.tasks = append(e.tasks, t)
	return t
}

// Compute is a convenience wrapper for a fixed-duration task on a resource.
func (e *Engine) Compute(label Label, rank int, res *Resource, d Time) *Task {
	t := e.NewTask(label, KindCompute, rank, res)
	t.Duration = d
	return t
}

// Transfer is a convenience wrapper for a sized task on a rated resource.
func (e *Engine) Transfer(label Label, kind Kind, rank int, res *Resource, bytes float64) *Task {
	t := e.NewTask(label, kind, rank, res)
	t.Size = bytes
	return t
}

// Barrier is a zero-cost join point.
func (e *Engine) Barrier(label Label, rank int) *Task {
	return e.NewTask(label, KindBarrier, rank, nil)
}

// event is a pending task completion. It holds no pointers, so the heap
// never boxes it and the garbage collector never scans the heap's array.
type event struct {
	at   Time
	seq  int32 // push order; breaks ties in at
	task int32 // index into Engine.tasks
}

func (a event) before(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). Since seq
// is unique the order is total, so pops come out in exactly (at, seq)
// order whatever the heap's shape.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if s[k].before(s[best]) {
				best = k
			}
		}
		if !s[best].before(last) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = last
	return top
}

func (e *Engine) push(at Time, t *Task) {
	e.events.push(event{at: at, seq: e.eventSeq, task: t.id})
	e.eventSeq++
}

func (t *Task) execTime() Time {
	d := t.Duration
	if t.Size > 0 && t.res != nil && t.res.Rate > 0 {
		d += t.Size / t.res.Rate
	}
	if t.res != nil {
		if s := t.res.Speed; s > 0 && s != 1 {
			d /= s
		}
		d += t.res.Latency
	}
	return d
}

func (e *Engine) ready(t *Task) {
	if t.res == nil {
		t.state = stateRunning
		t.Start = e.now
		e.push(e.now+t.execTime(), t)
		return
	}
	t.state = stateQueued
	if t.res.busy {
		t.res.queue = append(t.res.queue, t)
		return
	}
	e.start(t)
}

func (e *Engine) start(t *Task) {
	t.state = stateRunning
	t.Start = e.now
	t.res.busy = true
	d := t.execTime()
	t.res.BusyTime += d
	e.push(e.now+d, t)
}

// Run executes the task graph to completion and returns the makespan.
// It returns an error if the dependency graph has a cycle (some tasks can
// never run). Run may be called only once per engine.
func (e *Engine) Run() (Time, error) {
	if e.ran {
		return 0, fmt.Errorf("sim: engine already ran")
	}
	e.ran = true
	for _, t := range e.tasks {
		if t.deps == 0 {
			e.ready(t)
		}
	}
	done := 0
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		t := e.tasks[ev.task]
		t.state = stateDone
		t.End = e.now
		done++
		if t.res != nil {
			t.res.busy = false
			if len(t.res.queue) > 0 {
				next := t.res.queue[0]
				t.res.queue = t.res.queue[1:]
				e.start(next)
			}
		}
		for _, s := range t.succs {
			s.deps--
			if s.deps == 0 {
				e.ready(s)
			}
		}
		if e.OnTaskDone != nil {
			e.OnTaskDone(t)
		}
	}
	if done != len(e.tasks) {
		var stuck []string
		for _, t := range e.tasks {
			if t.state != stateDone {
				stuck = append(stuck, t.Label.String())
				if len(stuck) >= 5 {
					break
				}
			}
		}
		return 0, fmt.Errorf("sim: deadlock, %d/%d tasks completed (stuck: %v)", done, len(e.tasks), stuck)
	}
	return e.now, nil
}

// Makespan returns the completion time of the latest task; valid after Run.
func (e *Engine) Makespan() Time { return e.now }

// KindTotals sums busy time per task kind across all completed tasks.
// Overlapping tasks are counted independently, so totals can exceed the
// makespan; this mirrors per-stream accounting in profiler timelines.
func (e *Engine) KindTotals() map[Kind]Time {
	out := make(map[Kind]Time)
	for _, t := range e.tasks {
		if t.state == stateDone {
			out[t.Kind] += t.End - t.Start
		}
	}
	return out
}

// CriticalPath returns the longest dependency chain's total duration,
// ignoring resource contention. It lower-bounds the makespan and is used
// in tests to validate the scheduler.
func (e *Engine) CriticalPath() Time {
	// Tasks were created in topological-compatible order only if callers
	// added dependencies to already-created tasks; handle the general case
	// with a memoized DFS over successors instead.
	memo := make([]Time, len(e.tasks))
	for i := range memo {
		memo[i] = -1
	}
	var longest func(t *Task) Time
	longest = func(t *Task) Time {
		if memo[t.id] >= 0 {
			return memo[t.id]
		}
		memo[t.id] = 0 // cycle guard; graphs here are DAGs by construction
		best := Time(0)
		for _, s := range t.succs {
			if v := longest(s); v > best {
				best = v
			}
		}
		memo[t.id] = best + t.execTime()
		return memo[t.id]
	}
	best := Time(0)
	for _, t := range e.tasks {
		if v := longest(t); v > best {
			best = v
		}
	}
	return best
}

// AlmostEqual reports whether two times are equal within a small tolerance,
// for use in tests that compare schedules built through different paths.
func AlmostEqual(a, b Time) bool {
	const eps = 1e-9
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= eps*scale
}
