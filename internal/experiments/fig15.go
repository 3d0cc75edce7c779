package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/partition"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// Fig15 is the full-solve scaling sweep, an experiment the paper has no
// analogue for: it measures *planning latency* — the host-side cost of
// re-running the hierarchical partition every iteration — rather than
// simulated iteration time. Worlds of 64 → 32768 data-parallel ranks plan
// a churning high-multiplicity stream (FineWeb-shaped arrivals, ~5% of
// sequences replaced per iteration) through the full hierarchical solve.
// Each cell reports plan-latency p50/p95 and allocations per plan.
//
// Latencies are wall-clock and hence machine-dependent. The
// authoritative allocation numbers come from `go test -bench Fig15
// -benchmem`, which exercises the same stream through the same solver.

// Fig15Iters is the per-cell planning-stream length.
const Fig15Iters = 24

// Fig15ChurnFrac is the per-iteration fraction of sequences replaced.
const Fig15ChurnFrac = 0.05

// Fig15Ranks are the swept world sizes (data-parallel ranks; nodes of 8).
// The tail doubles to 32768 ranks: Alg. 1's node heap keeps the serial
// full solve there near 50 ms per plan, so the sweep stays routine.
var Fig15Ranks = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// Fig15Series is the full solve's measurement within a cell.
type Fig15Series struct {
	P50Micros     float64 `json:"p50_micros"`
	P95Micros     float64 `json:"p95_micros"`
	AllocsPerPlan float64 `json:"allocs_per_plan"`
}

// Fig15Cell is one world size's measurement.
type Fig15Cell struct {
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// Seqs is the mean batch size (sequences) of the cell's stream.
	Seqs int `json:"seqs"`

	Full Fig15Series `json:"full"`
}

// Fig15Result is the experiment's structured output.
type Fig15Result struct {
	Iters int         `json:"iters"`
	Churn float64     `json:"churn_frac"`
	Cells []Fig15Cell `json:"cells"`
}

// Fig15PlanConfig is the partition configuration of a sweep cell: nodes
// of Cluster A (8 GPUs each) at the default campaign capacity regime.
func Fig15PlanConfig(ranks int) partition.Config {
	return partition.Config{
		Cluster:        cluster.MustNew(cluster.ClusterA, ranks/cluster.ClusterA.GPUsPerNode),
		CapacityTokens: 5120, // 1.25 × the 4k per-rank budget, the default L
	}
}

// Fig15Stream pre-generates a cell's deterministic planning stream: a
// FineWeb batch at ~90% fill followed by churned successors. The same
// stream drives the sweep and the repository benchmarks, so their
// numbers compare batch for batch.
func Fig15Stream(ranks, iters int) [][]seq.Sequence {
	rng := rand.New(rand.NewSource(4242))
	budget := ranks * 4096 * 9 / 10
	batch := workload.FineWeb.Batch(budget, rng)
	out := make([][]seq.Sequence, 0, iters)
	out = append(out, batch)
	nextID := 1 << 24
	for i := 1; i < iters; i++ {
		batch, nextID = churnBatch(batch, rng, Fig15ChurnFrac, nextID)
		out = append(out, batch)
	}
	return out
}

// churnBatch replaces roughly frac of the batch's sequences (bounded at
// ~10% of its tokens) with fresh short arrivals of matching total,
// guaranteeing at least one change per step.
func churnBatch(batch []seq.Sequence, rng *rand.Rand, frac float64, nextID int) ([]seq.Sequence, int) {
	total := seq.TotalLen(batch)
	budget := total / 10
	out := make([]seq.Sequence, 0, len(batch))
	removed := 0
	for _, s := range batch {
		if removed+s.Len <= budget && rng.Float64() < frac {
			removed += s.Len
			continue
		}
		out = append(out, s)
	}
	if removed == 0 && len(out) > 0 {
		removed = out[len(out)-1].Len
		out = out[:len(out)-1]
	}
	for removed > 256 {
		l := 256 + rng.Intn(1024)
		if l > removed {
			l = removed
		}
		out = append(out, seq.Sequence{ID: nextID, Len: l})
		nextID++
		removed -= l
	}
	return out, nextID
}

// Fig15 runs the sweep. Stream generation (the data-heavy part) fans out
// across the worker pool; the latency/allocation measurement itself runs
// serially so cells never time each other's noise.
func Fig15(opts Options) (*Fig15Result, error) {
	opts = opts.normalized()
	streams := make([][][]seq.Sequence, len(Fig15Ranks))
	err := runner.ForEach(opts.ctx(), opts.Workers, len(Fig15Ranks), func(i int) error {
		streams[i] = Fig15Stream(Fig15Ranks[i], Fig15Iters)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}
	res := &Fig15Result{Iters: Fig15Iters, Churn: Fig15ChurnFrac}
	for i, ranks := range Fig15Ranks {
		cell, err := fig15Cell(ranks, streams[i])
		if err != nil {
			return nil, fmt.Errorf("fig15: %d ranks: %w", ranks, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Fig15Bench measures a single world size over a fresh stream of the
// given length — the entry point `zeppelin bench` uses so CLI bench runs
// and the fig15 sweep share one measurement path.
func Fig15Bench(ranks, iters int) (Fig15Cell, error) {
	if ranks < cluster.ClusterA.GPUsPerNode || ranks%cluster.ClusterA.GPUsPerNode != 0 {
		return Fig15Cell{}, fmt.Errorf("fig15: ranks must be a positive multiple of %d, got %d",
			cluster.ClusterA.GPUsPerNode, ranks)
	}
	if iters < 2 {
		return Fig15Cell{}, fmt.Errorf("fig15: need >= 2 iterations, got %d", iters)
	}
	return fig15Cell(ranks, Fig15Stream(ranks, iters))
}

// fig15Cell measures one world size on a pre-generated stream.
func fig15Cell(ranks int, stream [][]seq.Sequence) (Fig15Cell, error) {
	cfg := Fig15PlanConfig(ranks)
	cell := Fig15Cell{Ranks: ranks, Nodes: cfg.Cluster.Nodes}
	var seqs int
	for _, b := range stream {
		seqs += len(b)
	}
	cell.Seqs = seqs / len(stream)

	full, err := partition.New(cfg)
	if err != nil {
		return cell, err
	}
	// Latencies (µs) and the mean allocations per plan (Mallocs delta —
	// exact while the pass runs alone, which Fig15 guarantees by
	// measuring serially).
	lat := make([]float64, len(stream))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, b := range stream {
		t0 := time.Now()
		_, err := full.Plan(b)
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return cell, err
		}
	}
	runtime.ReadMemStats(&m1)
	cell.Full = Fig15Series{
		P50Micros:     campaign.Percentile(lat, 50),
		P95Micros:     campaign.Percentile(lat, 95),
		AllocsPerPlan: float64(m1.Mallocs-m0.Mallocs) / float64(len(stream)),
	}
	return cell, nil
}

// WriteFig15 renders the sweep table.
func WriteFig15(w io.Writer, opts Options) error {
	res, err := Fig15(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 15: full-solve planning latency, %d-iteration stream (%.0f%% churn)\n\n",
		res.Iters, res.Churn*100)
	fmt.Fprintf(w, "  %6s %6s %6s | %10s %10s | %s\n",
		"ranks", "nodes", "seqs", "p50 (µs)", "p95 (µs)", "allocations per plan")
	for _, c := range res.Cells {
		fmt.Fprintf(w, "  %6d %6d %6d | %10.0f %10.0f | %8.0f\n",
			c.Ranks, c.Nodes, c.Seqs, c.Full.P50Micros, c.Full.P95Micros, c.Full.AllocsPerPlan)
	}
	return nil
}
