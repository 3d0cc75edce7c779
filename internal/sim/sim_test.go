package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleTask(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	e.Compute(Named("k"), 0, r, 1.5)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 1.5 {
		t.Fatalf("makespan = %v, want 1.5", mk)
	}
}

func TestTransferUsesRate(t *testing.T) {
	e := NewEngine()
	nic := e.NewResource(ResourceName{}, 100) // 100 B/s
	tr := e.Transfer(Named("x"), KindInterComm, 0, nic, 250)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.End-tr.Start != 2.5 {
		t.Fatalf("transfer time = %v, want 2.5", tr.End-tr.Start)
	}
}

func TestResourceLatencyAdded(t *testing.T) {
	e := NewEngine()
	nic := e.NewResource(ResourceName{}, 100)
	nic.Latency = 0.25
	tr := e.Transfer(Named("x"), KindInterComm, 0, nic, 100)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(mk, 1.25) {
		t.Fatalf("makespan = %v, want 1.25", mk)
	}
	_ = tr
}

func TestSerialResourceQueues(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r, 1)
	b := e.Compute(Named("b"), 0, r, 2)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 3 {
		t.Fatalf("makespan = %v, want 3 (serialized)", mk)
	}
	if !(a.End <= b.Start) {
		t.Fatalf("b started before a finished: a=[%v,%v] b=[%v,%v]", a.Start, a.End, b.Start, b.End)
	}
}

func TestIndependentResourcesOverlap(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource(ResourceName{}, 0)
	r2 := e.NewResource(ResourceName{}, 0)
	e.Compute(Named("a"), 0, r1, 2)
	e.Compute(Named("b"), 1, r2, 2)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 2 {
		t.Fatalf("makespan = %v, want 2 (parallel)", mk)
	}
}

func TestDependencyOrdering(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource(ResourceName{}, 0)
	r2 := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r1, 1)
	b := e.Compute(Named("b"), 1, r2, 1)
	b.After(a)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 2 {
		t.Fatalf("makespan = %v, want 2 (chained)", mk)
	}
	if b.Start != a.End {
		t.Fatalf("b should start exactly when a ends")
	}
}

func TestBarrierJoins(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource(ResourceName{}, 0)
	r2 := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r1, 1)
	b := e.Compute(Named("b"), 1, r2, 3)
	bar := e.Barrier(Named("join"), 0).After(a, b)
	c := e.Compute(Named("c"), 0, r1, 1)
	c.After(bar)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 4 {
		t.Fatalf("makespan = %v, want 4", mk)
	}
}

func TestAfterIgnoresNil(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r, 1)
	a.After(nil, nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r, 1)
	b := e.Compute(Named("b"), 0, r, 1)
	a.After(b)
	b.After(a)
	_, err := e.Run()
	if want := "sim: deadlock, 0/2 tasks completed (stuck: [a b])"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	e.Compute(Named("a"), 0, r, 1)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("expected error on second Run")
	}
}

func TestKindTotals(t *testing.T) {
	e := NewEngine()
	gpu := e.NewResource(ResourceName{}, 0)
	nic := e.NewResource(ResourceName{}, 10)
	e.Compute(Named("a"), 0, gpu, 2)
	e.Transfer(Named("t"), KindInterComm, 0, nic, 30)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tot := e.KindTotals()
	if tot[KindCompute] != 2 {
		t.Fatalf("compute total = %v", tot[KindCompute])
	}
	if tot[KindInterComm] != 3 {
		t.Fatalf("inter-comm total = %v", tot[KindInterComm])
	}
}

func TestUtilization(t *testing.T) {
	e := NewEngine()
	gpu := e.NewResource(ResourceName{}, 0)
	other := e.NewResource(ResourceName{}, 0)
	e.Compute(Named("a"), 0, gpu, 1)
	e.Compute(Named("b"), 1, other, 4)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := gpu.Utilization(mk); got != 0.25 {
		t.Fatalf("gpu utilization = %v, want 0.25", got)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	// Tasks queued on a busy resource must run in ready-order.
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	first := e.Compute(Named("first"), 0, r, 5)
	var rest []*Task
	for i := 0; i < 10; i++ {
		tk := e.Compute(Named("t"), 0, r, 1)
		tk.After(first)
		rest = append(rest, tk)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rest); i++ {
		if rest[i].Start < rest[i-1].End {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

func TestCriticalPathLowerBoundsMakespan(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r, 1)
	b := e.Compute(Named("b"), 0, r, 2)
	c := e.Compute(Named("c"), 0, r, 3)
	c.After(a, b)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	cp := e.CriticalPath()
	if cp > mk+1e-12 {
		t.Fatalf("critical path %v exceeds makespan %v", cp, mk)
	}
	if cp != 5 { // b(2) -> c(3)
		t.Fatalf("critical path = %v, want 5", cp)
	}
}

func TestOnTaskDoneHookOrdering(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(ResourceName{}, 0)
	e.Compute(Named("a"), 0, r, 2)
	e.Compute(Named("b"), 0, r, 1)
	var order []string
	e.OnTaskDone = func(tk *Task) { order = append(order, tk.Label.String()) }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order = %v", order)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindBarrier: "barrier", KindCompute: "compute",
		KindIntraComm: "intra-comm", KindInterComm: "inter-comm", KindMemOp: "mem",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

// Property: for any set of independent tasks on one resource, makespan
// equals the sum of durations (serial execution, work conservation).
func TestPropertySerialWorkConservation(t *testing.T) {
	f := func(durs []uint16) bool {
		e := NewEngine()
		r := e.NewResource(ResourceName{}, 0)
		var sum Time
		for _, d := range durs {
			dt := Time(d%1000) / 100.0
			sum += dt
			e.Compute(Named("t"), 0, r, dt)
		}
		mk, err := e.Run()
		if err != nil || e.Audit() != nil {
			return false
		}
		return AlmostEqual(mk, sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random DAGs over multiple resources complete and their
// schedules pass the audit (dependencies respected, makespan >= critical
// path, FIFO resources).
func TestPropertyRandomDAGRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		e := NewEngine()
		nres := 1 + rng.Intn(4)
		var res []*Resource
		for i := 0; i < nres; i++ {
			res = append(res, e.NewResource(ResourceName{}, 0))
		}
		n := 5 + rng.Intn(40)
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			tasks[i] = e.Compute(Named("t"), i%nres, res[i%nres], Time(rng.Intn(100))/10)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.1 {
					tasks[i].After(tasks[j])
				}
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// Property: the simulator is deterministic — building the same graph twice
// yields identical task times.
func TestPropertyDeterminism(t *testing.T) {
	build := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r1 := e.NewResource(ResourceName{}, 50)
		r2 := e.NewResource(ResourceName{}, 0)
		var tasks []*Task
		for i := 0; i < 25; i++ {
			var tk *Task
			if i%2 == 0 {
				tk = e.Transfer(Named("x"), KindIntraComm, i, r1, float64(rng.Intn(500)))
			} else {
				tk = e.Compute(Named("y"), i, r2, Time(rng.Intn(50))/7)
			}
			if i > 2 && rng.Float64() < 0.3 {
				tk.After(tasks[rng.Intn(i-1)])
			}
			tasks = append(tasks, tk)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
		out := make([]Time, 0, 2*len(tasks))
		for _, tk := range tasks {
			out = append(out, tk.Start, tk.End)
		}
		return out
	}
	a, b := build(7), build(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Resource.Speed stretches the work portion of a task — duration and
// rated transfer time — but never the fixed latency.
func TestResourceSpeedScalesWork(t *testing.T) {
	e := NewEngine()
	comp := e.NewResource(ResourceName{}, 0)
	comp.Latency = 1
	comp.Speed = 0.5
	k := e.Compute(Named("kernel"), 0, comp, 10)

	link := e.NewResource(ResourceName{}, 100)
	link.Speed = 0.25
	x := e.Transfer(Named("xfer"), KindInterComm, 0, link, 400)

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.End - k.Start; got != 10/0.5+1 {
		t.Fatalf("half-speed kernel took %v, want %v", got, 10/0.5+1)
	}
	if got := x.End - x.Start; got != (400.0/100)/0.25 {
		t.Fatalf("quarter-speed transfer took %v, want %v", got, (400.0/100)/0.25)
	}

	// Speed 0 and 1 are nominal.
	e2 := NewEngine()
	r2 := e2.NewResource(ResourceName{}, 0)
	r2.Speed = 1
	k2 := e2.Compute(Named("kernel"), 0, r2, 10)
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k2.End - k2.Start; got != 10 {
		t.Fatalf("speed 1 changed duration: %v", got)
	}
}

// Completions at equal times are processed in the order their events were
// pushed, which is start order, not creation order: a is created before b
// but starts after p, so b, which started at 0, completes first.
func TestTieBreakIsPushOrderNotCreationOrder(t *testing.T) {
	e := NewEngine()
	r1 := e.NewResource(ResourceName{}, 0)
	r2 := e.NewResource(ResourceName{}, 0)
	r3 := e.NewResource(ResourceName{}, 0)
	a := e.Compute(Named("a"), 0, r1, 1)
	e.Compute(Named("b"), 0, r2, 1.5)
	p := e.Compute(Named("p"), 0, r3, 0.5)
	a.After(p)
	var order []string
	e.OnTaskDone = func(tk *Task) { order = append(order, tk.Label.String()) }
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, " ") != "p b a" {
		t.Fatalf("completion order = %v, want [p b a]", order)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// Audit names the constraint a corrupted schedule violates.
func TestAuditNamesViolatedConstraint(t *testing.T) {
	cases := []struct {
		constraint string
		corrupt    func(e *Engine, tasks map[string]*Task)
	}{
		{"starts-after-deps", func(e *Engine, ts map[string]*Task) { ts["d"].Start -= 0.5; ts["d"].End -= 0.5 }},
		{"runs-exec-time", func(e *Engine, ts map[string]*Task) { ts["x"].End += 1 }},
		{"serial-resource", func(e *Engine, ts map[string]*Task) {
			ts["y"].Start, ts["y"].End = ts["x"].End-0.5, ts["x"].End+0.5
		}},
		{"fifo-ready-order", func(e *Engine, ts map[string]*Task) {
			y, z := ts["y"], ts["z"]
			y.Start, y.End, z.Start, z.End = z.Start, z.End, y.Start, y.End
		}},
		{"busy-time", func(e *Engine, ts map[string]*Task) { ts["x"].res.BusyTime += 1 }},
		{"makespan-bounds-critical-path", func(e *Engine, ts map[string]*Task) { e.now = 0.1 }},
	}
	for _, c := range cases {
		// x runs [0,5] on r; y becomes ready at 1 and z at 2, both queued
		// behind x; d waits on a 1 s task elsewhere.
		e := NewEngine()
		r := e.NewResource(ResourceName{}, 0)
		o := e.NewResource(ResourceName{}, 0)
		ts := map[string]*Task{}
		ts["x"] = e.Compute(Named("x"), 0, r, 5)
		gy := e.Compute(Named("gy"), 0, o, 1)
		ts["y"] = e.Compute(Named("y"), 0, r, 1).After(gy)
		ts["z"] = e.Compute(Named("z"), 0, r, 1).After(e.Compute(Named("gz"), 0, o, 1))
		ts["d"] = e.Barrier(Named("d"), 0).After(gy)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("clean schedule: %v", err)
		}
		c.corrupt(e, ts)
		err := e.Audit()
		if err == nil || !strings.Contains(err.Error(), ": "+c.constraint+": ") {
			t.Errorf("%s: audit error %v", c.constraint, err)
		}
	}
	e := NewEngine()
	e.Compute(Named("never"), 0, e.NewResource(ResourceName{}, 0), 1)
	if err := e.Audit(); err == nil || !strings.Contains(err.Error(), "completed") || !strings.Contains(err.Error(), "never") {
		t.Errorf("un-run engine: audit error %v", err)
	}
}

// ringGraph builds the shape of one layer's ring attention: ranks ranks
// pass KV blocks around a ring for ranks rounds, each block a send, a
// receive and a join, each round a compute kernel that waits for the
// block and for the rank's previous kernel. 36 ranks give ~5k tasks.
func ringGraph(ranks int) *Engine {
	e := NewEngine()
	comp := make([]*Resource, ranks)
	tx := make([]*Resource, ranks)
	rx := make([]*Resource, ranks)
	for i := range comp {
		comp[i] = e.NewResource(ResourceName{}, 0)
		comp[i].Latency = 5e-6
		tx[i] = e.NewResource(ResourceName{}, 25e9)
		tx[i].Latency = 1e-5
		rx[i] = e.NewResource(ResourceName{}, 25e9)
		rx[i].Latency = 1e-5
	}
	start := e.Barrier(Named("start"), 0)
	have, next := make([]*Task, ranks), make([]*Task, ranks)
	last := make([]*Task, ranks)
	for t := 0; t < ranks; t++ {
		for i := 0; i < ranks; i++ {
			if t < ranks-1 {
				dst := (i + 1) % ranks
				send := e.Transfer(Named("kv/tx"), KindInterComm, i, tx[i], 64<<20).After(start, have[i])
				recv := e.Transfer(Named("kv/rx"), KindInterComm, dst, rx[dst], 64<<20).After(start, have[i])
				next[dst] = e.Barrier(Named("kv"), dst).After(send, recv)
			}
			c := e.Compute(Named("comp"), i, comp[i], 1e-3*float64(1+(i+t)%3)).After(start, have[i], last[i])
			last[i] = c
		}
		have, next = next, have
	}
	return e
}

func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := ringGraph(36)
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
