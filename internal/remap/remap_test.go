package remap

import (
	"math"
	"math/rand"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/flow"
	"zeppelin/internal/sim"
)

const (
	bIntra = 1.0 / 400e9
	bInter = 1.0 / 25e9
)

func TestBalancedTarget(t *testing.T) {
	got := BalancedTarget([]int{10, 0, 0, 0})
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("target = %v", got)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	c := cluster.MustNew(cluster.ClusterA, 1)
	if _, err := Solve([]int{1, 2}, c, bIntra, bInter); err == nil {
		t.Fatal("wrong world size should fail")
	}
	tok := make([]int, 8)
	if _, err := Solve(tok, c, 0, bInter); err == nil {
		t.Fatal("zero bIntra should fail")
	}
	if _, err := Solve(tok, c, bInter, bIntra); err == nil {
		t.Fatal("bIntra > bInter should fail")
	}
	tok[0] = -1
	if _, err := Solve(tok, c, bIntra, bInter); err == nil {
		t.Fatal("negative tokens should fail")
	}
}

func TestAlreadyBalancedNoTransfers(t *testing.T) {
	c := cluster.MustNew(cluster.ClusterA, 1)
	tok := []int{5, 5, 5, 5, 5, 5, 5, 5}
	p, err := Solve(tok, c, bIntra, bInter)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Transfers) != 0 || p.MaxSenderCost != 0 || p.InterTokens != 0 {
		t.Fatalf("balanced input should need no transfers: %+v", p)
	}
}

func TestIntraNodePreferred(t *testing.T) {
	c := cluster.MustNew(cluster.ClusterA, 2)
	tok := make([]int, 16)
	// Node 0 internally imbalanced but node-balanced: all moves intra.
	tok[0], tok[1] = 100, 0
	for i := 2; i < 8; i++ {
		tok[i] = 50
	}
	for i := 8; i < 16; i++ {
		tok[i] = 50
	}
	p, err := Solve(tok, c, bIntra, bInter)
	if err != nil {
		t.Fatal(err)
	}
	if p.InterTokens != 0 {
		t.Fatalf("node-balanced distribution must not ship inter, got %d", p.InterTokens)
	}
	after := Apply(tok, p)
	for i, v := range after {
		if v != p.Target[i] {
			t.Fatalf("rank %d: %d tokens, want %d", i, v, p.Target[i])
		}
	}
}

func TestCrossNodeResidualShipsExactMinimum(t *testing.T) {
	c := cluster.MustNew(cluster.ClusterA, 2)
	tok := make([]int, 16)
	// Node 0 holds everything; half must cross to node 1.
	for i := 0; i < 8; i++ {
		tok[i] = 100
	}
	p, err := Solve(tok, c, bIntra, bInter)
	if err != nil {
		t.Fatal(err)
	}
	if p.InterTokens != 400 {
		t.Fatalf("inter tokens = %d, want 400 (half the total)", p.InterTokens)
	}
	after := Apply(tok, p)
	for i, v := range after {
		if v != p.Target[i] {
			t.Fatalf("rank %d: %d != target %d", i, v, p.Target[i])
		}
	}
}

func TestWaterfillEqualizesSenderCosts(t *testing.T) {
	c := cluster.MustNew(cluster.ClusterA, 2)
	tok := make([]int, 16)
	// Two surplus ranks on node 0 with very different surpluses; one
	// intra deficit. Without water-filling, the big sender would carry
	// all the inter cost AND the intra quota would go to it arbitrarily.
	tok[0], tok[1], tok[2] = 1000, 200, 0
	for i := 3; i < 8; i++ {
		tok[i] = 150
	}
	for i := 8; i < 16; i++ {
		tok[i] = 150 // node 1 slightly below average
	}
	p, err := Solve(tok, c, bIntra, bInter)
	if err != nil {
		t.Fatal(err)
	}
	after := Apply(tok, p)
	for i, v := range after {
		if v != p.Target[i] {
			t.Fatalf("rank %d: %d != %d", i, v, p.Target[i])
		}
	}
	// Sender costs: compute per rank and check the spread is small
	// relative to a naive all-on-one assignment.
	cost := make([]float64, 16)
	for _, tr := range p.Transfers {
		per := bInter
		if c.SameNode(tr.From, tr.To) {
			per = bIntra
		}
		cost[tr.From] += per * float64(tr.Tokens)
	}
	naiveWorst := bInter * float64(tok[0]-p.Target[0])
	if p.MaxSenderCost >= naiveWorst {
		t.Fatalf("water-filled bottleneck %v should beat naive %v", p.MaxSenderCost, naiveWorst)
	}
}

// The minimal inter-node volume is Σ_n max(S_n − D_n, 0); cross-check the
// solver against a min-cost-flow formulation of Eq. 2 (minimizing total
// cost — with two-tier costs, both objectives force maximal intra
// matching, so inter volumes must agree).
func TestPropertyInterVolumeMatchesMinCostFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := cluster.MustNew(cluster.ClusterA, 2)
	for iter := 0; iter < 40; iter++ {
		tok := make([]int, 16)
		for i := range tok {
			tok[i] = rng.Intn(500)
		}
		p, err := Solve(tok, c, bIntra, bInter)
		if err != nil {
			t.Fatal(err)
		}
		after := Apply(tok, p)
		for i, v := range after {
			if v != p.Target[i] {
				t.Fatalf("iter %d: rank %d has %d, want %d", iter, i, v, p.Target[i])
			}
		}
		// Min-cost-flow reference: source -> surplus ranks, deficit ranks
		// -> sink, surplus->deficit edges with tiered costs.
		target := BalancedTarget(tok)
		g := flow.NewGraph(16 + 2)
		src, snk := 16, 17
		var totalSurplus int
		type edgeRec struct{ from, to, id int }
		var recs []edgeRec
		for i := range tok {
			if s := tok[i] - target[i]; s > 0 {
				g.AddEdge(src, i, s, 0)
				totalSurplus += s
			} else if s < 0 {
				g.AddEdge(i, snk, -s, 0)
			}
		}
		for i := range tok {
			if tok[i]-target[i] <= 0 {
				continue
			}
			for j := range tok {
				if tok[j]-target[j] >= 0 {
					continue
				}
				cost := bInter
				if c.SameNode(i, j) {
					cost = bIntra
				}
				id := g.AddEdge(i, j, totalSurplus, cost*1e12) // scale to avoid tiny floats
				recs = append(recs, edgeRec{i, j, id})
			}
		}
		f, _ := g.MinCostFlow(src, snk, math.MaxInt)
		if f != totalSurplus {
			t.Fatalf("iter %d: flow %d != surplus %d", iter, f, totalSurplus)
		}
		var flowInter int
		for _, r := range recs {
			if !c.SameNode(r.from, r.to) {
				flowInter += g.EdgeFlow(r.id)
			}
		}
		if flowInter != p.InterTokens {
			t.Fatalf("iter %d: solver inter volume %d != min-cost-flow %d", iter, p.InterTokens, flowInter)
		}
	}
}

// Property: conservation — transfers never create or destroy tokens, and
// no rank ever sends more than its surplus.
func TestPropertyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, nodes := range []int{1, 2, 4} {
		c := cluster.MustNew(cluster.ClusterC, nodes)
		for iter := 0; iter < 20; iter++ {
			tok := make([]int, c.World())
			for i := range tok {
				tok[i] = rng.Intn(9000)
			}
			p, err := Solve(tok, c, bIntra, bInter)
			if err != nil {
				t.Fatal(err)
			}
			target := BalancedTarget(tok)
			sent := make([]int, c.World())
			for _, tr := range p.Transfers {
				if tr.Tokens <= 0 {
					t.Fatalf("non-positive transfer %+v", tr)
				}
				if tr.From == tr.To {
					t.Fatalf("self transfer %+v", tr)
				}
				sent[tr.From] += tr.Tokens
			}
			for i := range sent {
				if surplus := tok[i] - target[i]; surplus > 0 && sent[i] != surplus {
					t.Fatalf("rank %d sent %d, surplus %d", i, sent[i], surplus)
				} else if surplus <= 0 && sent[i] != 0 {
					t.Fatalf("deficit rank %d sent %d tokens", i, sent[i])
				}
			}
		}
	}
}

func TestEmitAllToAll(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(cluster.ClusterA, 2)
	f := cluster.NewFabric(e, c)
	tok := make([]int, 16)
	for i := 0; i < 8; i++ {
		tok[i] = 1000
	}
	p, err := Solve(tok, c, bIntra, bInter)
	if err != nil {
		t.Fatal(err)
	}
	done := Emit(f, sim.Named("remap"), p, 8192)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk <= 0 || done.End != mk {
		t.Fatalf("remap should take time and finish last: mk=%v done=%v", mk, done.End)
	}
	// Transfers from different senders should overlap: makespan far less
	// than the serialized sum.
	var serial float64
	for _, tr := range p.Transfers {
		bytes := float64(tr.Tokens) * 8192
		if c.SameNode(tr.From, tr.To) {
			serial += bytes / c.IntraBandwidth
		} else {
			serial += bytes / c.NICBandwidth
		}
	}
	if mk > serial {
		t.Fatalf("alltoallv should parallelize: %v > serialized %v", mk, serial)
	}
}

func TestEmitEmptyPlan(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.MustNew(cluster.ClusterA, 1)
	f := cluster.NewFabric(e, c)
	p := &Plan{Target: make([]int, 8)}
	Emit(f, sim.Named("noop"), p, 8192)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatalf("empty plan should be free, got %v", mk)
	}
}
