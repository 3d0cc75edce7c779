package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

func newPart(t *testing.T, spec cluster.Spec, nodes, capacity int) *Partitioner {
	t.Helper()
	p, err := New(Config{Cluster: cluster.MustNew(spec, nodes), CapacityTokens: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil cluster should fail")
	}
	if _, err := New(Config{Cluster: cluster.MustNew(cluster.ClusterA, 1)}); err == nil {
		t.Fatal("zero capacity should fail")
	}
}

func TestRejectsOversizedBatch(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 1, 1000)
	_, err := p.Plan([]seq.Sequence{{ID: 0, Len: 9000}})
	if err == nil {
		t.Fatal("batch exceeding aggregate capacity must fail")
	}
}

func TestRejectsEmptySequence(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 1, 1000)
	if _, err := p.Plan([]seq.Sequence{{ID: 0, Len: 0}}); err == nil {
		t.Fatal("zero-length sequence must fail")
	}
}

func TestShortSequencesStayLocal(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 2, 8192)
	batch := []seq.Sequence{}
	for i := 0; i < 16; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: 500})
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 0 {
		t.Fatalf("short sequences should all be local, got %d rings", len(res.Plan.Rings))
	}
	// 16 sequences over 16 GPUs: greedy least-loaded gives one each.
	for r, ls := range res.Plan.Local {
		if len(ls) != 1 {
			t.Fatalf("rank %d has %d local sequences, want 1", r, len(ls))
		}
	}
}

func TestLongSequenceSpansNodes(t *testing.T) {
	// One sequence filling the entire 2-node budget must ring over all 16.
	p := newPart(t, cluster.ClusterA, 2, 4096)
	batch := []seq.Sequence{{ID: 0, Len: 2 * 8 * 4096}}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 1 {
		t.Fatalf("want 1 ring, got %d", len(res.Plan.Rings))
	}
	ring := res.Plan.Rings[0]
	if ring.Zone != seq.ZoneInter {
		t.Fatalf("zone = %v, want inter-node", ring.Zone)
	}
	if ring.G() != 16 {
		t.Fatalf("ring size = %d, want 16", ring.G())
	}
}

func TestMediumSequenceIntraNodeRing(t *testing.T) {
	// A sequence just under the inter threshold but above device capacity
	// must split within a node.
	p := newPart(t, cluster.ClusterA, 2, 4096)
	batch := []seq.Sequence{
		{ID: 0, Len: 3 * 4096}, // needs ~3 devices
		{ID: 1, Len: 1000}, {ID: 2, Len: 1000}, {ID: 3, Len: 900},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	var intraRings int
	c := cluster.MustNew(cluster.ClusterA, 2)
	for _, ring := range res.Plan.Rings {
		if ring.Zone == seq.ZoneIntra {
			intraRings++
			node := c.NodeOf(ring.Ranks[0])
			for _, r := range ring.Ranks {
				if c.NodeOf(r) != node {
					t.Fatal("intra ring must stay within one node")
				}
			}
		}
	}
	if intraRings == 0 {
		t.Fatal("expected at least one intra-node ring")
	}
}

func TestCapacityRespected(t *testing.T) {
	cap := 4096
	p := newPart(t, cluster.ClusterA, 2, cap)
	rng := rand.New(rand.NewSource(42))
	batch := workload.ArXiv.Batch(16*4096, rng)
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	for r, tok := range res.Plan.TokensPerRank() {
		// Alg. 2 balances *quadratic* cost for fragmented sequences, so a
		// rank's token count can modestly exceed L (only local-zone
		// placements are capacity-gated). Allow 10% headroom.
		if float64(tok) > 1.1*float64(cap) {
			t.Fatalf("rank %d holds %d tokens, capacity %d", r, tok, cap)
		}
	}
}

func TestThresholdLoweringConverges(t *testing.T) {
	// Capacity forces nearly every sequence to split: many sequences of
	// exactly capacity size.
	p := newPart(t, cluster.ClusterA, 2, 1024)
	var batch []seq.Sequence
	for i := 0; i < 16; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: 1024})
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if res.S1 > 8*1024 {
		t.Fatalf("s1 = %d should not exceed initial P*L", res.S1)
	}
}

func TestQuadraticBalanceAcrossDevices(t *testing.T) {
	// One node, one long + filler shorts: pair loads should be far closer
	// than a token-balanced split of whole sequences would give.
	p := newPart(t, cluster.ClusterA, 1, 8192)
	batch := []seq.Sequence{
		{ID: 0, Len: 16384}, // must fragment over >= 2 devices
		{ID: 1, Len: 4000}, {ID: 2, Len: 4000}, {ID: 3, Len: 4000},
		{ID: 4, Len: 4000}, {ID: 5, Len: 4000}, {ID: 6, Len: 4000},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	pairs := res.Plan.PairsPerRank()
	var maxP, sumP float64
	for _, q := range pairs {
		sumP += q
		if q > maxP {
			maxP = q
		}
	}
	avg := sumP / float64(len(pairs))
	if maxP > 3*avg {
		t.Fatalf("quadratic imbalance too high: max %.3g vs avg %.3g (pairs=%v)", maxP, avg, pairs)
	}
}

func TestInterRingCrossNodeChunking(t *testing.T) {
	// Two long sequences on 4 nodes: each should chunk across ~2 nodes
	// rather than spreading thinly over all 4 (Alg. 1 lines 7-10 increase
	// granularity for cross-node sequences).
	p := newPart(t, cluster.ClusterA, 4, 4096)
	batch := []seq.Sequence{
		{ID: 0, Len: 60000},
		{ID: 1, Len: 60000},
	}
	res, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Rings) != 2 {
		t.Fatalf("want 2 rings, got %d", len(res.Plan.Rings))
	}
	for _, ring := range res.Plan.Rings {
		if ring.G() != 16 { // 2 nodes × 8 GPUs each
			t.Fatalf("ring size = %d, want 16 (2 nodes)", ring.G())
		}
	}
}

func TestDeterministicPlans(t *testing.T) {
	p := newPart(t, cluster.ClusterA, 2, 4096)
	rng1 := rand.New(rand.NewSource(9))
	batch := workload.GitHub.Batch(16*4096, rng1)
	r1, err := p.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newPart(t, cluster.ClusterA, 2, 4096)
	r2, err := p2.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := r1.Plan.TokensPerRank(), r2.Plan.TokensPerRank()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("plans must be deterministic")
		}
	}
}

// TestReusedPartitionerMatchesFresh: one Partitioner planning a stream of
// distinct batches returns, for each, exactly the Result a fresh
// Partitioner returns — scratch reuse across calls must not leak state.
// The cells span workloads, cluster shapes, capacity pressure, and a
// degraded effective-speed view; every cell also plans a batch of
// capacity-sized sequences, which forces a deep threshold-retry chain.
func TestReusedPartitionerMatchesFresh(t *testing.T) {
	type cell struct {
		name     string
		spec     cluster.Spec
		nodes    int
		capacity int
		fill     float64 // fraction of aggregate capacity to sample
		speeds   bool
	}
	cells := []cell{
		{"github-roomy", cluster.ClusterA, 2, 8192, 0.5, false},
		{"github-tight", cluster.ClusterA, 2, 2048, 0.95, false},
		{"arxiv-4node", cluster.ClusterA, 4, 4096, 0.9, false},
		{"clusterC", cluster.ClusterC, 2, 4096, 0.8, false},
		{"degraded", cluster.ClusterA, 2, 4096, 0.7, true},
	}
	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			c := cluster.MustNew(cl.spec, cl.nodes)
			cfg := Config{Cluster: c, CapacityTokens: cl.capacity}
			if cl.speeds {
				cfg.Speeds = make([]float64, c.World())
				for i := range cfg.Speeds {
					cfg.Speeds[i] = 1
				}
				cfg.Speeds[1] = 0.4 // one straggler
			}
			var batches [][]seq.Sequence
			for seedv := int64(1); seedv <= 3; seedv++ {
				rng := rand.New(rand.NewSource(seedv))
				budget := int(cl.fill * float64(c.World()*cl.capacity))
				batches = append(batches, workload.GitHub.Batch(budget, rng))
			}
			// Fill aggregate capacity exactly with 3N+1 near-equal
			// distinct lengths: greedy z01 packing cannot hit the exact
			// fill, so Alg. 1 walks its whole threshold-retry chain.
			total, k := c.World()*cl.capacity, 3*cl.nodes+1
			full := make([]seq.Sequence, k)
			for i := range full {
				full[i] = seq.Sequence{ID: i, Len: total/k + (k/2-i)*7}
				total -= full[i].Len
			}
			full[k-1].Len += total
			batches = append(batches, full)

			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for b, batch := range batches {
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Plan(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				got, err := reused.Plan(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				if err := got.Plan.Validate(batch); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: reused partitioner's result differs from a fresh one's", b)
				}
			}
			if res, _ := reused.Plan(full); res.S1 >= c.GPUsPerNode*cl.capacity {
				t.Fatalf("full batch converged at s1 = %d: no threshold retry", res.S1)
			}
		})
	}
}

// TestRetryPressurePlansValidate fills the aggregate capacity of two
// nodes exactly with 17 near-equal sequences; an odd count cannot split
// evenly over the nodes, so Alg. 1 walks a long threshold-retry chain. The
// plan must validate, and a reused Partitioner must return a fresh one's
// Result on it.
func TestRetryPressurePlansValidate(t *testing.T) {
	const total, k = 16 * 1024, 17
	var batch []seq.Sequence
	for i := 0; i < k; i++ {
		batch = append(batch, seq.Sequence{ID: i, Len: total / k})
	}
	batch[k-1].Len += total % k
	want, err := newPart(t, cluster.ClusterA, 2, 1024).Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	reused := newPart(t, cluster.ClusterA, 2, 1024)
	for pass := 0; pass < 2; pass++ {
		got, err := reused.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Plan.Validate(batch); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: reused result differs from a fresh one's under retry pressure", pass)
		}
	}
	if want.S1 >= 8*1024 {
		t.Fatalf("converged at s1 = %d: no threshold retry", want.S1)
	}
}

// Property-style test over all datasets, scales, and seeds: plans always
// validate (token conservation, ring structure) and respect capacity.
func TestPropertyPlansValidateAcrossWorkloads(t *testing.T) {
	specs := []cluster.Spec{cluster.ClusterA, cluster.ClusterC}
	for _, spec := range specs {
		for _, nodes := range []int{1, 2, 4} {
			for _, d := range workload.Eval {
				rng := rand.New(rand.NewSource(int64(nodes)*100 + int64(len(d.Name))))
				c := cluster.MustNew(spec, nodes)
				capTok := 8192
				p, err := New(Config{Cluster: c, CapacityTokens: capTok})
				if err != nil {
					t.Fatal(err)
				}
				batch := d.Batch(c.World()*4096, rng)
				res, err := p.Plan(batch)
				if err != nil {
					t.Fatalf("%s/%s/%d nodes: %v", spec.Name, d.Name, nodes, err)
				}
				if err := res.Plan.Validate(batch); err != nil {
					t.Fatalf("%s/%s/%d nodes: %v", spec.Name, d.Name, nodes, err)
				}
				if res.S1 <= 0 || res.S1 > c.GPUsPerNode*capTok {
					t.Fatalf("s1 = %d out of range", res.S1)
				}
			}
		}
	}
}

func TestLeastLoaded(t *testing.T) {
	var ps pickScratch
	got := ps.leastLoaded([]int{5, 1, 3, 1}, 2, nil)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("leastLoaded = %v, want [1 3]", got)
	}
	// Effective time loads: rank 0 is fast, rank 1 slow — 5/5 < 1/0.1.
	got = ps.leastLoaded([]int{5, 1, 3, 1}, 2, []float64{5, 0.1, 1, 1})
	if got[0] != 0 || got[1] != 3 {
		t.Fatalf("speed-weighted leastLoaded = %v, want [0 3]", got)
	}
	// Equal raw loads resolve by index, even after selection swaps have
	// reordered the candidates.
	got = ps.leastLoaded([]int{1, 0, 1, 0}, 4, nil)
	if want := []int{1, 3, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tied leastLoaded = %v, want %v", got, want)
	}
	// k == 1 runs one selection pass and agrees with argminLoad.
	if one := ps.leastLoaded([]int{4, 2, 9}, 1, nil); len(one) != 1 || one[0] != 1 {
		t.Fatalf("leastLoaded k=1 = %v, want [1]", one)
	}
}

func TestArgminLoad(t *testing.T) {
	if argminLoad([]int{3, 1, 2}, nil) != 1 {
		t.Fatal("argmin wrong")
	}
	if argminLoad([]int{7}, nil) != 0 {
		t.Fatal("argmin singleton wrong")
	}
	// Under speeds, the fast rank's effective load wins: 3/10 < 1/1.
	if argminLoad([]int{3, 1, 2}, []float64{10, 1, 1}) != 0 {
		t.Fatal("speed-weighted argmin wrong")
	}
}
