package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The reference engine is the simulator's original event loop: a
// container/heap of boxed (at, seq, *Task) events. It stays in the tests
// as the naive oracle the production heap is checked against, and runs
// an Engine's task graph in place of Run.

type refEvent struct {
	at   Time
	seq  int
	task *Task
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func refRun(e *Engine) (Time, error) {
	if e.ran {
		return 0, fmt.Errorf("sim: engine already ran")
	}
	e.ran = true
	var events refHeap
	seq := 0
	push := func(at Time, t *Task) {
		heap.Push(&events, refEvent{at: at, seq: seq, task: t})
		seq++
	}
	start := func(t *Task) {
		t.state = stateRunning
		t.Start = e.now
		t.res.busy = true
		d := t.execTime()
		t.res.BusyTime += d
		push(e.now+d, t)
	}
	ready := func(t *Task) {
		if t.res == nil {
			t.state = stateRunning
			t.Start = e.now
			push(e.now+t.execTime(), t)
			return
		}
		t.state = stateQueued
		if t.res.busy {
			t.res.queue = append(t.res.queue, t)
			return
		}
		start(t)
	}
	for _, t := range e.tasks {
		if t.deps == 0 {
			ready(t)
		}
	}
	done := 0
	for events.Len() > 0 {
		ev := heap.Pop(&events).(refEvent)
		e.now = ev.at
		t := ev.task
		t.state = stateDone
		t.End = e.now
		done++
		if t.res != nil {
			t.res.busy = false
			if len(t.res.queue) > 0 {
				next := t.res.queue[0]
				t.res.queue = t.res.queue[1:]
				start(next)
			}
		}
		for _, s := range t.succs {
			s.deps--
			if s.deps == 0 {
				ready(s)
			}
		}
		if e.OnTaskDone != nil {
			e.OnTaskDone(t)
		}
	}
	if done != len(e.tasks) {
		return 0, fmt.Errorf("sim: deadlock, %d/%d tasks completed", done, len(e.tasks))
	}
	return e.now, nil
}

// byteStream turns fuzz input into bounded choices; an exhausted stream
// yields zeros.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) n(k int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % k
}

// randomGraph builds a DAG from spec on a fresh engine. Durations, sizes,
// rates, latencies and speeds are binary fractions, so equal completion
// times are common and exact; barriers are zero-cost or carry a
// duration; dependencies follow a random topological order that need not
// match creation order.
func randomGraph(spec []byte) *Engine {
	s := &byteStream{b: spec}
	e := NewEngine()
	nres := 1 + s.n(4)
	for i := 0; i < nres; i++ {
		r := e.NewResource(ResourceName{}, []float64{0, 100, 1000}[s.n(3)])
		r.Latency = []Time{0, 0.25, 0.5}[s.n(3)]
		r.Speed = []float64{0, 1, 0.5, 0.25}[s.n(4)]
	}
	n := 1 + s.n(64)
	tasks := make([]*Task, n)
	for i := range tasks {
		switch s.n(4) {
		case 0:
			tasks[i] = e.Barrier(Named("bar"), i%3)
			tasks[i].Duration = []Time{0, 0, 0.25}[s.n(3)]
		case 1:
			tasks[i] = e.Transfer(Named("xfer"), KindInterComm, i%3, e.resources[s.n(nres)], []float64{0, 25, 50, 100}[s.n(4)])
		default:
			tasks[i] = e.Compute(Named("comp"), i%3, e.resources[s.n(nres)], []Time{0, 0.25, 0.5, 1}[s.n(4)])
		}
	}
	order := rand.New(rand.NewSource(int64(s.n(256)))).Perm(n)
	for k, i := range order {
		for _, j := range order[:k] {
			if s.n(6) == 0 {
				tasks[i].After(tasks[j])
			}
		}
	}
	return e
}

// runBoth runs spec's graph through Run and the reference engine and
// requires identical (Start, End) per task, identical completion order
// and makespan, and a clean audit of both schedules.
func runBoth(t *testing.T, spec []byte) {
	got, want := randomGraph(spec), randomGraph(spec)
	var gotOrder, wantOrder []int32
	got.OnTaskDone = func(tk *Task) { gotOrder = append(gotOrder, tk.id) }
	want.OnTaskDone = func(tk *Task) { wantOrder = append(wantOrder, tk.id) }
	gmk, gerr := got.Run()
	wmk, werr := refRun(want)
	if gerr != nil || werr != nil {
		t.Fatalf("run: %v, reference: %v", gerr, werr)
	}
	if gmk != wmk {
		t.Fatalf("makespan %v, reference %v", gmk, wmk)
	}
	for i, tk := range got.tasks {
		if w := want.tasks[i]; tk.Start != w.Start || tk.End != w.End {
			t.Fatalf("task %d: [%v,%v], reference [%v,%v]", i, tk.Start, tk.End, w.Start, w.End)
		}
	}
	if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) {
		t.Fatalf("completion order %v, reference %v", gotOrder, wantOrder)
	}
	for name, e := range map[string]*Engine{"run": got, "reference": want} {
		if err := e.Audit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDifferentialRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		spec := make([]byte, rng.Intn(2048))
		rng.Read(spec)
		runBoth(t, spec)
	}
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 2, 2, 2, 0, 0, 0, 40, 3, 0, 1, 2, 3})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		spec := make([]byte, 512)
		rng.Read(spec)
		f.Add(spec)
	}
	f.Fuzz(runBoth)
}

// The 4-ary heap pops any interleaving of pushes and pops in exact
// (at, seq) order, with deep heaps and many equal times.
func TestEventHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h eventHeap
	var pending []event
	var seq int32
	for step := 0; step < 20000; step++ {
		if len(pending) > 0 && rng.Intn(3) == 0 {
			if got := h.pop(); got != pending[0] {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, pending[0])
			}
			pending = pending[1:]
			continue
		}
		ev := event{at: Time(rng.Intn(50)) / 4, seq: seq, task: seq}
		seq++
		h.push(ev)
		// pending stays sorted: insert ev after every event before it.
		i := sort.Search(len(pending), func(i int) bool { return ev.before(pending[i]) })
		pending = append(pending, event{})
		copy(pending[i+1:], pending[i:])
		pending[i] = ev
	}
}
