package main

import (
	"math/rand"
	"runtime/metrics"

	"zeppelin/internal/campaign"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
)

// span is one timed interval of the traced run. Spans of one op form a
// tree rooted at the op span; a child lies inside its parent's interval
// and siblings do not overlap (the benchmark is single-goroutine).
type span struct {
	name       string
	parent     int   // index of the parent span, -1 for an op root
	start, end int64 // thread CPU ns since the tracer's epoch
	alloc      uint64
}

// tracer records spans in memory around calls into the program's layers
// and folds them into per-name totals before each traced pass.
// Spans are timed on the ops' thread CPU clock, like the end-to-end
// times. Allocation per span comes from the runtime's cumulative
// heap-allocation counter read at span boundaries.
type tracer struct {
	epoch  int64
	spans  []span
	open   []int
	sample []metrics.Sample
	// cursor is where the next gap span starts: the end of the most
	// recently closed span, or the start of the innermost open one.
	cursor      int64
	cursorAlloc uint64
	// counts accumulates per-op counters by metric name.
	counts map[string]float64
	// totals holds the spans folded so far, by name.
	totals map[string]*spanTotals
}

func newTracer() *tracer {
	return &tracer{
		epoch:  threadCPU(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		counts: make(map[string]float64),
		totals: make(map[string]*spanTotals),
	}
}

func (t *tracer) now() (int64, uint64) {
	metrics.Read(t.sample)
	return threadCPU() - t.epoch, t.sample[0].Value.Uint64()
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	ts, a := t.now()
	t.spans = append(t.spans, span{name: name, parent: t.parent(), start: ts, alloc: a})
	t.open = append(t.open, len(t.spans)-1)
	t.cursor, t.cursorAlloc = ts, a
}

// end closes the innermost open span.
func (t *tracer) end() {
	ts, a := t.now()
	s := &t.spans[t.open[len(t.open)-1]]
	s.end = ts
	s.alloc = a - s.alloc
	t.open = t.open[:len(t.open)-1]
	t.cursor, t.cursorAlloc = ts, a
}

// gap records the interval from the cursor to now as a closed child of
// the innermost open span: the work a layer does between two wrapped
// calls (set-up before planning, linear emission between remaps).
func (t *tracer) gap(name string) {
	ts, a := t.now()
	t.spans = append(t.spans, span{name: name, parent: t.parent(), start: t.cursor, end: ts, alloc: a - t.cursorAlloc})
	t.cursor, t.cursorAlloc = ts, a
}

// drop discards every span recorded from index mark on (a call that
// turned out not to be an op).
func (t *tracer) drop(mark int) {
	t.spans = t.spans[:mark]
	t.open = t.open[:0]
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// spanTotals is the per-name aggregate of a traced run.
type spanTotals struct {
	dur, self int64
	alloc     uint64
}

// fold adds the recorded spans to the totals and drops them, so memory
// stays bounded by one pass of spans however long the run.
func (t *tracer) fold() {
	for name, st := range aggregate(t.spans) {
		tot := t.totals[name]
		if tot == nil {
			tot = &spanTotals{}
			t.totals[name] = tot
		}
		tot.dur += st.dur
		tot.self += st.self
		tot.alloc += st.alloc
	}
	t.spans = t.spans[:0]
}

// aggregate sums duration, self time (duration minus the children's
// durations) and allocation by span name.
func aggregate(spans []span) map[string]*spanTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanTotals)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanTotals{}
			out[s.name] = st
		}
		st.dur += s.end - s.start
		st.self += s.end - s.start - child[i]
		st.alloc += s.alloc
	}
	return out
}

// tracedMethod times Method.Plan and wraps the placement it returns. It
// forwards the optional interfaces the campaign layer asserts on its
// method (campaign.SpeedAware, campaign.ShapeIndependent,
// campaign.Replanner), answering as the inner method would when it does
// not implement one.
type tracedMethod struct {
	inner trainer.Method
	t     *tracer

	// The most recent placement, for countLast.
	env  *trainer.Env
	pl   trainer.Placement
	seqs int
	done int
}

// tracedReporter additionally forwards campaign.PlanModeReporter and the
// planner counters that ride with it (zeppelin.Incremental implements
// both). It exists as its own type so wrapping a method without them
// does not make the decorator look like a reporter.
type tracedReporter struct{ *tracedMethod }

type planCounters interface {
	PlannerCounters() partition.Counters
}

// traceMethod decorates m for the traced run. It returns the decorator
// to hand to the campaign and the tracedMethod inside it.
func traceMethod(m trainer.Method, t *tracer) (trainer.Method, *tracedMethod) {
	tm := &tracedMethod{inner: m, t: t}
	_, pm := m.(campaign.PlanModeReporter)
	_, pc := m.(planCounters)
	if pm && pc {
		return tracedReporter{tm}, tm
	}
	return tm, tm
}

func (m *tracedMethod) Name() string { return m.inner.Name() }

func (m *tracedMethod) SpeedAware() bool {
	sa, ok := m.inner.(campaign.SpeedAware)
	return ok && sa.SpeedAware()
}

func (m *tracedMethod) ShapeIndependent() bool {
	si, ok := m.inner.(campaign.ShapeIndependent)
	return ok && si.ShapeIndependent()
}

func (m *tracedMethod) ResetPlanner() {
	if rp, ok := m.inner.(campaign.Replanner); ok {
		rp.ResetPlanner()
	}
}

func (m tracedReporter) LastPlanMode() string {
	return m.inner.(campaign.PlanModeReporter).LastPlanMode()
}

func (m tracedReporter) PlannerCounters() partition.Counters {
	return m.inner.(planCounters).PlannerCounters()
}

// Plan records the campaign's pre-plan work (controller, slot projection,
// admission, NewEnv) as a gap span, times the inner Plan, and arms the
// engine hook that closes the sim.run span when the last task finishes.
// The placement's shape is counted after the op (see countLast), so the
// counting stays out of the op's spans.
func (m *tracedMethod) Plan(env *trainer.Env, batch []seq.Sequence) (trainer.Placement, error) {
	t := m.t
	t.gap("campaign.pre_plan")
	t.begin("zeppelin.plan")
	pl, err := m.inner.Plan(env, batch)
	t.end()
	if err != nil {
		return nil, err
	}
	m.env, m.pl, m.seqs, m.done = env, pl, len(batch), 0
	prev := env.E.OnTaskDone
	env.E.OnTaskDone = func(task *sim.Task) {
		if prev != nil {
			prev(task)
		}
		m.done++
		if m.done == len(env.E.Tasks()) {
			t.gap("sim.run")
		}
	}
	return &tracedPlacement{Placement: pl, t: t}, nil
}

// countLast counts the shape of the most recent placement and its
// simulation.
func (m *tracedMethod) countLast() {
	if m.pl == nil {
		return
	}
	countPlacement(m.t, m.env, m.pl, m.seqs)
	m.t.count("sim.tasks", float64(m.done))
	m.t.count("sim.resources", float64(len(m.env.E.Resources())))
	m.pl = nil
}

// countPlacement records the per-op shape counters of a placement:
// sequences planned, rings, whether any ring crosses nodes, whether any
// rank holds more than the planner's budget L, and remap transfers.
func countPlacement(t *tracer, env *trainer.Env, pl trainer.Placement, seqs int) {
	t.count("workload.seqs", float64(seqs))
	if p, ok := pl.(interface{ Plan() *seq.Plan }); ok {
		plan := p.Plan()
		t.count("partition.rings", float64(len(plan.Rings)))
		for _, r := range plan.Rings {
			if r.Zone == seq.ZoneInter {
				t.count("partition.ring_ops", 1)
				break
			}
		}
		for _, n := range plan.TokensPerRank() {
			if n > env.CapacityTokens {
				t.count("partition.over_budget_ops", 1)
				break
			}
		}
	}
	if p, ok := pl.(interface{ RemapPlan() *remap.Plan }); ok {
		if rp := p.RemapPlan(); rp != nil {
			t.count("remap.transfers", float64(len(rp.Transfers)))
		}
	}
}

// tracedPlacement times each Emit call. trainer.RunPlanned emits the
// linear modules between a remap to the linear layout and the next remap
// back, so the gap before EmitRemapToAttention is linear emission.
type tracedPlacement struct {
	trainer.Placement
	t *tracer
}

func (p *tracedPlacement) EmitAttention(env *trainer.Env, backward bool, deps ...*sim.Task) *sim.Task {
	p.t.begin("attention.emit")
	defer p.t.end()
	return p.Placement.EmitAttention(env, backward, deps...)
}

func (p *tracedPlacement) EmitRemapToLinear(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	p.t.begin("remap.emit")
	defer p.t.end()
	return p.Placement.EmitRemapToLinear(env, deps...)
}

func (p *tracedPlacement) EmitRemapToAttention(env *trainer.Env, deps ...*sim.Task) *sim.Task {
	p.t.gap("trainer.emit_linear")
	p.t.begin("remap.emit")
	defer p.t.end()
	return p.Placement.EmitRemapToAttention(env, deps...)
}

// tracedArrival times Arrival.Batch and forwards the Validate method the
// campaign layer asserts on arrivals.
type tracedArrival struct {
	inner campaign.Arrival
	t     *tracer
}

func (a tracedArrival) Name() string { return a.inner.Name() }

func (a tracedArrival) Validate() error {
	if v, ok := a.inner.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

func (a tracedArrival) Batch(iter, baseTokens int, rng *rand.Rand) []seq.Sequence {
	a.t.begin("workload.batch")
	defer a.t.end()
	return a.inner.Batch(iter, baseTokens, rng)
}
