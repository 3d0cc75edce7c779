package partition

import (
	"math/rand"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// incCell is the standard incremental-planner test cell: 4 nodes of
// Cluster A with the default per-rank capacity regime.
func incCell(t *testing.T) Config {
	t.Helper()
	return Config{Cluster: cluster.MustNew(cluster.ClusterA, 4), CapacityTokens: 5120}
}

// sampleBatch draws a capacity-respecting batch for a cell from FineWeb's
// short-tailed distribution: a high-multiplicity stream of many
// local-zone sequences.
func sampleBatch(cfg Config, rng *rand.Rand, frac float64) []seq.Sequence {
	budget := int(frac * float64(cfg.Cluster.World()*cfg.CapacityTokens))
	return workload.FineWeb.Batch(budget, rng)
}

// mutate replaces roughly `frac` of the batch's sequences (capped at
// ~10% of its tokens) with fresh short ones of similar total length,
// keeping IDs unique and the total under the original. It models the
// per-iteration churn of a streaming arrival; at least one sequence
// always changes so consecutive batches are never cache-identical.
func mutate(batch []seq.Sequence, rng *rand.Rand, frac float64, nextID int) ([]seq.Sequence, int) {
	total := seq.TotalLen(batch)
	budget := total / 10
	out := make([]seq.Sequence, 0, len(batch))
	removedTokens := 0
	for _, s := range batch {
		if removedTokens+s.Len <= budget && rng.Float64() < frac {
			removedTokens += s.Len
			continue
		}
		out = append(out, s)
	}
	if removedTokens == 0 && len(out) > 0 {
		removedTokens = out[len(out)-1].Len
		out = out[:len(out)-1]
	}
	for removedTokens > 256 {
		l := 256 + rng.Intn(1024)
		if l > removedTokens {
			l = removedTokens
		}
		out = append(out, seq.Sequence{ID: nextID, Len: l})
		nextID++
		removedTokens -= l
	}
	return out, nextID
}

func mustPlan(t *testing.T, p *Incremental, cfg Config, batch []seq.Sequence) (*Result, PlanStats) {
	t.Helper()
	res, st, err := p.Plan(cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(batch); err != nil {
		t.Fatalf("%s plan invalid: %v", st.Mode, err)
	}
	return res, st
}

func TestIncrementalExactCacheHit(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(1))
	batch := sampleBatch(cfg, rng, 0.8)

	p := NewIncremental(IncrementalConfig{})
	res1, st1 := mustPlan(t, p, cfg, batch)
	if st1.Mode != PlanFull {
		t.Fatalf("first plan mode = %s, want full", st1.Mode)
	}
	res2, st2 := mustPlan(t, p, cfg, batch)
	if st2.Mode != PlanCached {
		t.Fatalf("repeat plan mode = %s, want cached", st2.Mode)
	}
	if res1 != res2 {
		t.Fatal("cache hit must return the identical result")
	}
	if c := p.Counters(); c.Full != 1 || c.Cached != 1 || c.Shared != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestIncrementalExactModeNeverPatches(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(2))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{})
	mustPlan(t, p, cfg, batch)

	next, _ := mutate(batch, rng, 0.05, 1<<20)
	_, st := mustPlan(t, p, cfg, next)
	if st.Mode != PlanFull {
		t.Fatalf("exact mode planned %s on a delta, want full", st.Mode)
	}
}

func TestIncrementalCacheEviction(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(11))
	a := sampleBatch(cfg, rng, 0.7)
	b := sampleBatch(cfg, rng, 0.7)
	c := sampleBatch(cfg, rng, 0.7)

	p := NewIncremental(IncrementalConfig{CacheCap: 2})
	mustPlan(t, p, cfg, a)
	mustPlan(t, p, cfg, b)
	if _, st := mustPlan(t, p, cfg, a); st.Mode != PlanCached {
		t.Fatalf("a should still be cached, got %s", st.Mode)
	}
	// Inserting c evicts the least recently used entry (b).
	mustPlan(t, p, cfg, c)
	if _, st := mustPlan(t, p, cfg, b); st.Mode != PlanCached {
		// b was evicted: replanning it is a full solve.
		if st.Mode != PlanFull {
			t.Fatalf("evicted batch planned as %s", st.Mode)
		}
	} else {
		t.Fatal("b should have been evicted by c")
	}
	if _, st := mustPlan(t, p, cfg, a); st.Mode == PlanCached {
		t.Fatal("a should have been evicted after b's re-solve")
	}
}

// TestIncrementalHealthInvalidation pins the fault-arrival rule: a
// change in the effective-speed view (straggler onset, a moved
// straggler) must force a full solve even for a batch the cache holds,
// and clearing the fault serves the healthy plan again.
func TestIncrementalHealthInvalidation(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(13))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{})
	healthy, _ := mustPlan(t, p, cfg, batch)
	if _, st := mustPlan(t, p, cfg, batch); st.Mode != PlanCached {
		t.Fatalf("healthy repeat planned as %s, want cached", st.Mode)
	}

	straggler := func(rank int) Config {
		c := cfg
		c.Speeds = make([]float64, cfg.Cluster.World())
		for i := range c.Speeds {
			c.Speeds[i] = 1
		}
		c.Speeds[rank] = 0.4
		return c
	}
	degraded := straggler(3)
	if _, st := mustPlan(t, p, degraded, batch); st.Mode != PlanFull {
		t.Fatalf("straggler onset planned as %s, want full", st.Mode)
	}
	if _, st := mustPlan(t, p, degraded, batch); st.Mode != PlanCached {
		t.Fatalf("stable degraded view planned as %s, want cached", st.Mode)
	}
	if _, st := mustPlan(t, p, straggler(5), batch); st.Mode != PlanFull {
		t.Fatalf("moved straggler planned as %s, want full", st.Mode)
	}

	// Fault clearing (back to nil speeds) is the healthy view again.
	res, st := mustPlan(t, p, cfg, batch)
	if st.Mode != PlanCached || res != healthy {
		t.Fatalf("fault clearing: mode %s, same plan %v; want the cached healthy plan", st.Mode, res == healthy)
	}
}

// TestIncrementalResizeInvalidation: an elastic resize or a capacity
// change keys a different plan, so a cached batch is solved in full.
func TestIncrementalResizeInvalidation(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(19))
	batch := sampleBatch(cfg, rng, 0.4)
	p := NewIncremental(IncrementalConfig{})
	mustPlan(t, p, cfg, batch)
	if _, st := mustPlan(t, p, cfg, batch); st.Mode != PlanCached {
		t.Fatalf("unchanged repeat planned as %s, want cached", st.Mode)
	}

	shrunk := Config{Cluster: cluster.MustNew(cluster.ClusterA, 2), CapacityTokens: cfg.CapacityTokens}
	if _, st := mustPlan(t, p, shrunk, batch); st.Mode != PlanFull {
		t.Fatalf("elastic resize planned as %s, want full", st.Mode)
	}

	grown := cfg
	grown.CapacityTokens = cfg.CapacityTokens * 2
	if _, st := mustPlan(t, p, grown, batch); st.Mode != PlanFull {
		t.Fatalf("capacity change planned as %s, want full", st.Mode)
	}
}

// TestIncrementalCacheDistinguishesNodeSplit: a 2×8 and a 4×4 cluster
// share a world of 16 but bucket sequences differently, so the planner's
// own cache must never serve one shape's plan to the other — not even
// when their keys collide. The key is forced equal to model a collision.
func TestIncrementalCacheDistinguishesNodeSplit(t *testing.T) {
	spec44 := cluster.ClusterA
	spec44.GPUsPerNode = 4
	spec44.NICsPerNode = 2
	cfg28 := Config{Cluster: cluster.MustNew(cluster.ClusterA, 2), CapacityTokens: 5120}
	cfg44 := Config{Cluster: cluster.MustNew(spec44, 4), CapacityTokens: 5120}
	batch := sampleBatch(cfg28, rand.New(rand.NewSource(11)), 0.8)

	part, err := New(cfg28)
	if err != nil {
		t.Fatal(err)
	}
	res, err := part.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	p := NewIncremental(IncrementalConfig{})
	const key = 42
	p.cache.put(key, cfg28, batch, res)
	if got := p.cache.get(key, cfg28, batch); got != res {
		t.Fatal("2x8 lookup missed its own entry")
	}
	if got := p.cache.get(key, cfg44, batch); got != nil {
		t.Fatal("4x4 lookup under a colliding key returned the 2x8 plan")
	}
}

func TestIncrementalReset(t *testing.T) {
	cfg := incCell(t)
	rng := rand.New(rand.NewSource(29))
	batch := sampleBatch(cfg, rng, 0.8)
	p := NewIncremental(IncrementalConfig{})
	mustPlan(t, p, cfg, batch)
	p.Reset()
	if c := p.Counters(); c.Plans() != 0 {
		t.Fatalf("counters survive Reset: %+v", c)
	}
	if _, st := mustPlan(t, p, cfg, batch); st.Mode != PlanFull {
		t.Fatalf("post-Reset plan mode = %s, want full", st.Mode)
	}
}
