package main

import (
	"runtime"
	"slices"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/campaign"
	"zeppelin/internal/partition"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	zep "zeppelin/internal/zeppelin"
)

// The method decorator must look to the campaign layer exactly like the
// method it wraps: every optional interface campaign.Start and the
// campaign loop assert answers the same through the decorator.
func TestMethodDecoratorForwardsInterfaces(t *testing.T) {
	methods := map[string]trainer.Method{
		"zeppelin":    zep.Full(),
		"incremental": zep.NewIncremental(zep.Full(), partition.IncrementalConfig{}),
		"tecp":        baselines.TECP{},
		"hybriddp":    baselines.HybridDP{},
	}
	for name, inner := range methods {
		outer, _ := traceMethod(inner, newTracer())
		if outer.Name() != inner.Name() {
			t.Errorf("%s: Name %q, want %q", name, outer.Name(), inner.Name())
		}
		speed := func(m trainer.Method) bool {
			sa, ok := m.(campaign.SpeedAware)
			return ok && sa.SpeedAware()
		}
		if speed(outer) != speed(inner) {
			t.Errorf("%s: SpeedAware %v, want %v", name, speed(outer), speed(inner))
		}
		shape := func(m trainer.Method) bool {
			si, ok := m.(campaign.ShapeIndependent)
			return ok && si.ShapeIndependent()
		}
		if shape(outer) != shape(inner) {
			t.Errorf("%s: ShapeIndependent %v, want %v", name, shape(outer), shape(inner))
		}
		// A Replanner is reset through the decorator; a method without
		// one gets a no-op, which is what the campaign does for it.
		if _, ok := outer.(campaign.Replanner); !ok {
			t.Errorf("%s: decorator does not forward ResetPlanner", name)
		}
		_, innerPM := inner.(campaign.PlanModeReporter)
		pm, outerPM := outer.(campaign.PlanModeReporter)
		if innerPM != outerPM {
			t.Errorf("%s: PlanModeReporter %v, want %v", name, outerPM, innerPM)
		}
		_, innerPC := inner.(planCounters)
		_, outerPC := outer.(planCounters)
		if innerPC != outerPC {
			t.Errorf("%s: PlannerCounters %v, want %v", name, outerPC, innerPC)
		}
		if innerPM && pm.LastPlanMode() != inner.(campaign.PlanModeReporter).LastPlanMode() {
			t.Errorf("%s: LastPlanMode differs", name)
		}
	}
}

// campaign.Config.Validate asserts Validate on the arrival; the
// decorator must pass a bad dataset's error through.
func TestArrivalDecoratorForwardsValidate(t *testing.T) {
	bad := campaign.Steady{D: workload.Dataset{Name: "bad", Probs: []float64{-1}}}
	if bad.Validate() == nil {
		t.Fatal("test arrival unexpectedly valid")
	}
	if (tracedArrival{bad, newTracer()}).Validate() == nil {
		t.Error("decorator swallowed the arrival's validation error")
	}
}

// checkSpans verifies the span arithmetic of a trace: every child lies
// inside its parent, children never add up to more than the parent, and
// the self times of each op's spans sum to the op's duration.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	children := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			t.Fatalf("span %d %s ends before it starts", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			t.Fatalf("span %d %s [%d,%d] outside parent %s [%d,%d]", i, s.name, s.start, s.end, p.name, p.start, p.end)
		}
		children[s.parent] += s.end - s.start
	}
	self := make(map[int]int64) // op root -> sum of self times in its tree
	root := func(i int) int {
		for spans[i].parent >= 0 {
			i = spans[i].parent
		}
		return i
	}
	for i, s := range spans {
		if children[i] > s.end-s.start {
			t.Fatalf("span %d %s: children %d ns exceed its %d ns", i, s.name, children[i], s.end-s.start)
		}
		self[root(i)] += s.end - s.start - children[i]
	}
	for r, sum := range self {
		if d := spans[r].end - spans[r].start; sum != d {
			t.Fatalf("op %d: self times sum to %d ns, op took %d ns", r, sum, d)
		}
	}
	// aggregate must agree: total self equals total op time.
	var ops, selfSum int64
	for _, st := range aggregate(spans) {
		selfSum += st.self
	}
	for _, s := range spans {
		if s.parent < 0 {
			ops += s.end - s.start
		}
	}
	if selfSum != ops {
		t.Fatalf("aggregate self %d ns != op time %d ns", selfSum, ops)
	}
}

// spin burns about d ns of the calling thread's CPU time.
func spin(d int64) {
	for start := threadCPU(); threadCPU()-start < d; {
	}
}

func TestSpanArithmetic(t *testing.T) {
	runtime.LockOSThread() // spans are timed on this thread's CPU clock
	defer runtime.UnlockOSThread()
	tr := newTracer()
	for range 3 {
		tr.begin("op")
		tr.begin("a")
		spin(1e6)
		tr.gap("a.gap")
		tr.begin("a.b")
		spin(1e6)
		tr.end()
		tr.end()
		spin(1e6)
		tr.gap("c")
		tr.begin("d")
		tr.end()
		tr.end()
	}
	checkSpans(t, tr.spans)
	agg := aggregate(tr.spans)
	if agg["a.b"].dur < 3e6 || agg["a"].self > agg["a"].dur {
		t.Fatalf("implausible aggregate: %+v %+v", agg["a.b"], agg["a"])
	}
	mark := len(tr.spans)
	tr.begin("op")
	tr.begin("dropped")
	tr.drop(mark)
	if len(tr.spans) != mark || len(tr.open) != 0 {
		t.Fatal("drop left spans behind")
	}
}

// One pass of each workload, untraced then traced: the outputs and the
// failed checks must be identical and the real spans well formed.
// train-prolong runs a shorter horizon; its traced pass is the only one
// that goes through tracedArrival and the Threshold policy rebuilt in
// campaignPass.config, which must match what pkg/zeppelin builds.
func TestTracedPassesReproduceUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full passes")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, c := range []struct {
		name    string
		newPass func(seed int64, t *tracer) (pass, error)
	}{
		{"train-prolong", func(seed int64, t *tracer) (pass, error) { return newCampaignPass(false, seed, 40, t) }},
		{"serve-burst", workloads["serve-burst"].newPass},
		{"plan-4k", workloads["plan-4k"].newPass},
	} {
		name := c.name
		tr := newTracer()
		phases, err := runPasses(c.newPass, 3, 1, []*tracer{nil, tr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, traced := phases[0], phases[1]
		if plain.failed != traced.failed || !slices.Equal(plain.errs, traced.errs) {
			t.Fatalf("%s: untraced failed %d %v, traced failed %d %v", name, plain.failed, plain.errs, traced.failed, traced.errs)
		}
		if plain.failed != 0 {
			t.Fatalf("%s: failed checks %v", name, plain.errs)
		}
		if plain.digests[0] != traced.digests[0] || len(plain.opNs) != len(traced.opNs) {
			t.Fatalf("%s: traced outputs differ from untraced", name)
		}
		checkSpans(t, tr.spans) // the last pass; earlier ones are folded
		tr.fold()
		if got := len(tr.totals); got < 3 {
			t.Fatalf("%s: only %d span names recorded", name, got)
		}
		var ops, self int64
		for name, st := range tr.totals {
			self += st.self
			if name == "op" {
				ops = st.dur
			}
		}
		if self != ops {
			t.Fatalf("%s: folded self times sum to %d ns, ops took %d ns", name, self, ops)
		}
	}
}

func TestTailRule(t *testing.T) {
	seqTo := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{1000, 99, 990, 10}, // exactly ten beyond p99
		{999, 90, 900, 99},  // p99 at rank 990 leaves nine: fall back to p90
		{2000, 99, 1980, 20},
		{100, 90, 90, 10},
		{99, 50, 50, 49}, // p90 at rank 90 leaves nine: median
	} {
		p := tailPercentile(c.n)
		v, b := tailAt(seqTo(c.n), p)
		if p != c.p || v != c.value || b != c.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d", c.n, p, v, b, c.p, c.value, c.beyond)
		}
	}
	if got := nearestRank([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", got)
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %g", got)
	}
}

func TestPassSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for p := range 50 {
			s := passSeed(seed, p)
			if s <= 0 || seen[s] || s != passSeed(seed, p) {
				t.Fatalf("passSeed(%d, %d) = %d: not positive, unique and stable", seed, p, s)
			}
			seen[s] = true
		}
	}
}
