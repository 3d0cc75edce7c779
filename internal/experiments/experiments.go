// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment has a typed runner returning
// structured results plus a Write function that renders the same rows or
// series the paper reports. The cmd/zeppelin CLI and the repository-root
// benchmarks both drive these runners.
//
// Experiment index:
//
//	Fig1    — dataset sequence-length distributions
//	Table2  — evaluation dataset bin proportions
//	Fig3    — attention cost breakdown: packing vs even-split CP
//	Fig5    — operation cost curves and the three-zone boundaries
//	Fig8    — end-to-end throughput across models/datasets/scales
//	Fig9    — scalability, 3B on 16–128 GPUs
//	Fig10   — Cluster A vs Cluster B speedups
//	Fig11   — component ablation
//	Fig12   — attention timeline traces
//	Fig13   — streaming campaign: 200-iteration drifting stream
//	Fig14   — fault-schedule campaigns: failures, stragglers, scaling
//	Fig15   — full-solve planner scaling sweep to 32768 ranks
//	Fig16   — serving scenario: SLO classes, balance vs affinity routing
//	Table3  — per-component cost ranges, balanced vs skewed
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// Sampler builds a batch for a token budget; workload.Dataset.Batch,
// workload.SkewedBatch and workload.BalancedBatch all satisfy it.
type Sampler func(totalTokens int, rng *rand.Rand) []seq.Sequence

// Methods returns the paper's four compared systems in Fig. 8 order.
func Methods() []trainer.Method {
	return []trainer.Method{
		baselines.TECP{},
		baselines.LLaMACP{},
		baselines.HybridDP{},
		zeppelin.Full(),
	}
}

// AllMethods additionally includes the input-balanced packing strategy of
// Fig. 2a, which the paper analyzes (Fig. 3a) but does not carry into the
// end-to-end comparison.
func AllMethods() []trainer.Method {
	return append([]trainer.Method{baselines.Packing{}}, Methods()...)
}

// Options control experiment fidelity and execution.
type Options struct {
	// Seeds is the number of independently sampled batches averaged per
	// cell (the paper averages training steps 50–150). Default 3.
	Seeds int
	// Workers bounds the simulation pool; <= 0 selects GOMAXPROCS.
	// Results are identical for every worker count.
	Workers int
	// Ctx, when set, bounds every grid fan-out of the experiment:
	// cancellation stops the pool between jobs and the experiment
	// returns ctx.Err(). Nil means Background (run to completion).
	Ctx context.Context
}

// ctx returns the experiment's context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// normalized returns options with defaults applied.
func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	return o
}

// Cell identifies one throughput measurement configuration.
type Cell struct {
	Model        model.Config
	Spec         cluster.Spec
	Nodes        int
	TP           int
	TokensPerGPU int
}

// Config converts a cell into a trainer configuration for one seed.
func (c Cell) Config(seed int64) trainer.Config {
	return trainer.Config{
		Model:        c.Model,
		Spec:         c.Spec,
		Nodes:        c.Nodes,
		TP:           c.TP,
		TokensPerGPU: c.TokensPerGPU,
		Seed:         seed,
	}
}

// SeedValue is the per-seed RNG base every figure and campaign has
// always used; keep it stable so regenerated numbers match earlier
// revisions. cmd/zeppelin's campaign subcommand uses it too, so CLI
// campaigns and fig13 stream identical per-seed batches.
func SeedValue(s int) int64 { return int64(1000 + 37*s) }

// job is one simulation of a grid: a trainer configuration, the method
// that plans it, and the sampler that draws its batch from cfg.Seed. The
// label names the job in a failure, e.g. "fig8/7B/64k/arxiv/TE CP/s0".
type job struct {
	label  string
	cfg    trainer.Config
	method trainer.Method
	sample Sampler
}

// grid accumulates the (cell × method × seed) jobs of one figure in
// submission order and remembers which job indices average into which
// reported mean.
type grid struct {
	jobs   []job
	groups map[string][]int
}

// add registers `seeds` jobs for one (cell, sampler, method) mean under
// a group key.
func (g *grid) add(group string, cell Cell, sample Sampler, m trainer.Method, seeds int) {
	if g.groups == nil {
		g.groups = make(map[string][]int)
	}
	if _, dup := g.groups[group]; dup {
		panic(fmt.Sprintf("experiments: group %q added twice", group))
	}
	for s := 0; s < max(seeds, 1); s++ {
		g.groups[group] = append(g.groups[group], len(g.jobs))
		g.jobs = append(g.jobs, job{
			label:  fmt.Sprintf("%s/s%d", group, s),
			cfg:    cell.Config(SeedValue(s)),
			method: m,
			sample: sample,
		})
	}
}

// run simulates every job through runner.ForEach and returns the results
// in submission order. Every job runs even when some fail; the reported
// failure is the lowest-index one, wrapped with its label, and a
// cancelled opts.Ctx returns ctx.Err().
func (g *grid) run(opts Options) ([]*trainer.Result, error) {
	res := make([]*trainer.Result, len(g.jobs))
	err := runner.ForEach(opts.ctx(), opts.Workers, len(g.jobs), func(i int) error {
		j := &g.jobs[i]
		r, err := trainer.Run(j.cfg, j.method, j.cfg.Batch(j.sample))
		if err != nil {
			return fmt.Errorf("%s: %w", j.label, err)
		}
		res[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// means runs the grid and returns each group's seed-averaged throughput,
// summed in seed order.
func (g *grid) means(opts Options) (map[string]float64, error) {
	res, err := g.run(opts)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(g.groups))
	for group, idx := range g.groups {
		var sum float64
		for _, i := range idx {
			sum += res[i].TokensPerSec
		}
		out[group] = sum / float64(len(idx))
	}
	return out, nil
}

// MeanThroughput runs a method on `seeds` independently sampled batches
// on one worker and returns the average tokens/second. It is the
// single-cell convenience wrapper; figures submit whole grids instead so
// cells fan out across the pool.
func MeanThroughput(ctx context.Context, cell Cell, sample Sampler, m trainer.Method, seeds int) (float64, error) {
	var g grid
	g.add("cell", cell, sample, m, seeds)
	means, err := g.means(Options{Workers: 1, Ctx: ctx})
	if err != nil {
		return 0, err
	}
	return means["cell"], nil
}

// fmtK renders a token count as the paper writes context lengths (64k,
// 2M). Exact multiples keep their integer form; anything else rounds to
// one decimal in the same unit, so a 100000-token budget renders as
// "97.7k" instead of falling back to the raw integer mid-table (the old
// behavior, which mixed "512k" and "100000" in one axis). Counts below
// 1k stay raw — "512" reads better than "0.5k".
func fmtK(tokens int) string {
	const k = 1024
	const m = k * k
	switch {
	case tokens >= m && tokens%m == 0:
		return fmt.Sprintf("%dM", tokens/m)
	case tokens >= m:
		return fmt.Sprintf("%.1fM", float64(tokens)/m)
	case tokens%k == 0 && tokens >= k:
		return fmt.Sprintf("%dk", tokens/k)
	case tokens > k:
		return fmt.Sprintf("%.1fk", float64(tokens)/k)
	default:
		return fmt.Sprintf("%d", tokens)
	}
}

// speedupRow prints one "method: tok/s (x.xx×)" block normalized to the
// first entry, the layout of the Fig. 8 bar annotations.
func speedupRow(w io.Writer, names []string, tput []float64) {
	base := tput[0]
	for i, n := range names {
		ratio := 0.0
		if base > 0 {
			ratio = tput[i] / base
		}
		fmt.Fprintf(w, "    %-28s %10.0f tok/s   %5.2fx\n", n, tput[i], ratio)
	}
}

// Eval datasets in the order every multi-dataset figure uses.
func evalDatasets() []workload.Dataset { return workload.Eval }
