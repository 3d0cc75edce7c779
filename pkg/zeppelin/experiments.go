package zeppelin

import (
	"context"
	"fmt"
	"io"

	"zeppelin/internal/experiments"
	"zeppelin/internal/workload"
)

// Options control experiment fidelity and execution for the experiment
// entry points.
type Options struct {
	// Seeds is the number of independently sampled batches (or
	// campaigns) averaged per cell; <= 0 selects 3.
	Seeds int
	// Workers bounds the concurrent simulation pool; <= 0 selects
	// GOMAXPROCS. Results are bit-identical at every worker count.
	Workers int
}

// Experiments lists every runnable experiment name in paper order —
// the valid inputs to RunExperiment, RenderExperiment, and the
// /v1/experiments/{name} endpoint ("all" is additionally accepted by
// the CLI and expands to this sequence).
func Experiments() []string {
	return []string{"fig1", "table2", "fig3", "fig5", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table3"}
}

// IsExperiment reports whether name is a runnable experiment.
func IsExperiment(name string) bool {
	for _, k := range Experiments() {
		if k == name {
			return true
		}
	}
	return false
}

// internal maps public options plus a context onto the internal
// experiment options.
func (o Options) internal(ctx context.Context) experiments.Options {
	return experiments.Options{Seeds: o.Seeds, Workers: o.Workers, Ctx: ctx}
}

// RunExperiment computes one experiment's structured result — the JSON
// document the /v1/experiments/{name} endpoint serves. Cancelling ctx
// stops the experiment's simulation grid and returns ctx.Err().
func RunExperiment(ctx context.Context, name string, o Options) (any, error) {
	return runExperiment(name, o.internal(ctx))
}

// runExperiment dispatches one experiment on resolved internal options.
func runExperiment(name string, opts experiments.Options) (any, error) {
	switch name {
	case "fig1":
		return experiments.Fig1(), nil
	case "table2":
		return workload.Eval, nil
	case "fig3":
		return experiments.Fig3All(opts)
	case "fig5":
		return experiments.Fig5(), nil
	case "fig8":
		return experiments.Fig8(opts)
	case "fig9":
		return experiments.Fig9(opts)
	case "fig10":
		return experiments.Fig10(opts)
	case "fig11":
		return experiments.Fig11(opts)
	case "fig12":
		return experiments.Fig12Traces(opts)
	case "fig13":
		return experiments.Fig13(opts)
	case "fig14":
		return experiments.Fig14(opts)
	case "fig15":
		return experiments.Fig15(opts)
	case "fig16":
		return experiments.Fig16(opts)
	case "table3":
		return experiments.Table3(opts)
	}
	return nil, fmt.Errorf("zeppelin: unknown experiment %q", name)
}

// RenderExperiment writes one experiment's paper-style text rendering.
func RenderExperiment(ctx context.Context, w io.Writer, name string, o Options) error {
	return renderExperiment(w, name, o.internal(ctx))
}

// renderExperiment dispatches one rendering on resolved options.
func renderExperiment(w io.Writer, name string, opts experiments.Options) error {
	switch name {
	case "fig1":
		experiments.WriteFig1(w)
		return nil
	case "table2":
		experiments.WriteTable2(w)
		return nil
	case "fig3":
		return experiments.WriteFig3(w, opts)
	case "fig5":
		experiments.WriteFig5(w)
		return nil
	case "fig8":
		return experiments.WriteFig8(w, opts)
	case "fig9":
		return experiments.WriteFig9(w, opts)
	case "fig10":
		return experiments.WriteFig10(w, opts)
	case "fig11":
		return experiments.WriteFig11(w, opts)
	case "fig12":
		return experiments.WriteFig12(w, opts)
	case "fig13":
		return experiments.WriteFig13(w, opts)
	case "fig14":
		return experiments.WriteFig14(w, opts)
	case "fig15":
		return experiments.WriteFig15(w, opts)
	case "fig16":
		return experiments.WriteFig16(w, opts)
	case "table3":
		cols, err := experiments.Table3(opts)
		if err != nil {
			return err
		}
		return experiments.RenderTable3(w, cols)
	}
	return fmt.Errorf("zeppelin: unknown experiment %q", name)
}

// NamedResult pairs an experiment name with its structured result — the
// element of the `all` JSON artifact (an ordered array, not a map, so
// the paper ordering survives encoding).
type NamedResult struct {
	Name   string `json:"name"`
	Result any    `json:"result"`
}

// RunAllExperiments computes every experiment in paper order. Each
// experiment simulates its own grid; a cell two figures share runs in
// both.
func RunAllExperiments(ctx context.Context, o Options) ([]NamedResult, error) {
	opts := o.internal(ctx)
	out := make([]NamedResult, 0, len(Experiments()))
	for _, name := range Experiments() {
		r, err := runExperiment(name, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, NamedResult{Name: name, Result: r})
	}
	return out, nil
}

// RenderAllExperiments renders every experiment in paper order, under
// `================ name ================` banners.
func RenderAllExperiments(ctx context.Context, w io.Writer, o Options) error {
	opts := o.internal(ctx)
	for _, name := range Experiments() {
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		if err := renderExperiment(w, name, opts); err != nil {
			return err
		}
	}
	return nil
}

// ThroughputRequest asks for one cell's seed-averaged throughput — the
// building block of the compare and moe examples.
type ThroughputRequest struct {
	// Model names the transformer preset; empty selects "7B".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Dataset names the length distribution; empty selects "arxiv".
	Dataset string `json:"dataset,omitempty"`
	// Method is the scheduling method; empty selects "zeppelin".
	Method string `json:"method,omitempty"`
	// Seeds is the number of sampled batches averaged; <= 0 selects 3.
	Seeds int `json:"seeds,omitempty"`
}

// MeanThroughput runs the requested method on Seeds independently
// sampled batches and returns the mean tokens/second.
func MeanThroughput(ctx context.Context, req ThroughputRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cfg, d, m, err := PlanRequest{
		Model: req.Model, Cluster: req.Cluster, Dataset: req.Dataset, Method: req.Method,
	}.resolve()
	if err != nil {
		return 0, err
	}
	seeds := req.Seeds
	if seeds <= 0 {
		seeds = 3
	}
	cell := experiments.Cell{
		Model: cfg.Model, Spec: cfg.Spec, Nodes: cfg.Nodes,
		TP: cfg.TP, TokensPerGPU: cfg.TokensPerGPU,
	}
	return experiments.MeanThroughput(ctx, cell, d.Batch, m, seeds)
}
