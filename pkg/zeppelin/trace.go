package zeppelin

import (
	"context"
	"fmt"
	"io"

	"zeppelin/internal/cluster"
	"zeppelin/internal/experiments"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
)

// TraceRequest asks for one attention layer (forward + backward) to be
// planned, simulated, and rendered as a Fig. 12 timeline. The embedded
// PlanRequest selects the cell, the method, and — without Lengths — the
// sampled batch.
type TraceRequest struct {
	PlanRequest
	// Lengths lists the batch's sequence lengths; empty samples the
	// batch from Dataset at Seed instead.
	Lengths []int
	// Ranks are the data-parallel ranks whose lanes are rendered; each
	// must lie in [0, world), where tensor parallelism folds TP GPUs
	// into one rank. At least one is required.
	Ranks []int
	// Width is the timeline width in columns; <= 0 selects 100.
	Width int
}

// resolve maps the request onto a trainer cell, method, and batch, and
// checks every rank against the world of the planned cluster.
func (r TraceRequest) resolve() (trainer.Config, trainer.Method, []seq.Sequence, error) {
	cfg, d, m, err := r.PlanRequest.resolve()
	if err != nil {
		return trainer.Config{}, nil, nil, err
	}
	c, err := cluster.New(cfg.EffectiveSpec(), cfg.Nodes)
	if err != nil {
		return trainer.Config{}, nil, nil, err
	}
	if len(r.Ranks) == 0 {
		return trainer.Config{}, nil, nil, fmt.Errorf("zeppelin: trace needs at least one rank")
	}
	for _, rk := range r.Ranks {
		if rk < 0 || rk >= c.World() {
			return trainer.Config{}, nil, nil, fmt.Errorf("zeppelin: trace rank %d outside world [0, %d)", rk, c.World())
		}
	}
	if len(r.Lengths) == 0 {
		return cfg, m, cfg.Batch(d.Batch), nil
	}
	batch := make([]seq.Sequence, len(r.Lengths))
	for i, l := range r.Lengths {
		if l < 1 {
			return trainer.Config{}, nil, nil, fmt.Errorf("zeppelin: sequence length must be >= 1, got %d", l)
		}
		batch[i] = seq.Sequence{ID: i, Len: l}
	}
	return cfg, m, batch, nil
}

// Validate reports whether the request resolves to a traceable cell.
func (r TraceRequest) Validate() error {
	_, _, _, err := r.resolve()
	return err
}

// RenderTrace plans the request's batch, simulates one attention layer,
// and writes a header line followed by the timeline of the chosen ranks
// and the forward/backward phase statistics — the rendering of each
// `zeppelin fig12` scenario.
func RenderTrace(ctx context.Context, w io.Writer, req TraceRequest) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg, m, batch, err := req.resolve()
	if err != nil {
		return err
	}
	events, err := experiments.TraceAttention(cfg, m, batch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s, %s, cluster %s x%d, %d tokens in %d sequences\n",
		m.Name(), cfg.Model.Name, cfg.Spec.Name, cfg.Nodes, seq.TotalLen(batch), len(batch))
	experiments.WriteAttentionTrace(w, events, req.Ranks, req.Width)
	return nil
}
