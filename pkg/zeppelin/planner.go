package zeppelin

import (
	"context"
	"fmt"
	"io"

	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
)

// planCarrier is implemented by placements that expose their partition
// plan (the Zeppelin planners do; even-split baselines have none).
type planCarrier interface{ Plan() *seq.Plan }

// remapCarrier is implemented by placements that expose their Eq. 2
// remapping solution.
type remapCarrier interface{ RemapPlan() *remap.Plan }

// Plan answers a one-shot plan request: it samples the batch, runs the
// partitioner (and, for Zeppelin, the Eq. 2 remapping solve), then
// simulates the planned iteration end to end. Plan is safe for
// concurrent use and deterministic per request. The context is checked
// between the planning and simulation stages; a cancelled context
// returns ctx.Err().
func Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, dataset, m, err := req.resolve()
	if err != nil {
		return nil, err
	}
	batch := cfg.Batch(dataset.Batch)

	// Planning pass: build the placement once to read the plan facts.
	env, err := cfg.NewEnv()
	if err != nil {
		return nil, err
	}
	pl, err := m.Plan(env, batch)
	if err != nil {
		return nil, err
	}
	resp := &PlanResponse{
		Method: m.Name(),
		World:  env.C.World(),
		Seqs:   len(batch),
		Tokens: seq.TotalLen(batch),
	}
	if pc, ok := pl.(planCarrier); ok {
		plan := pc.Plan()
		resp.TokensPerRank = plan.TokensPerRank()
		resp.Imbalance = partition.LoadImbalance(plan, nil)
		for _, ls := range plan.Local {
			resp.LocalSeqs += len(ls)
		}
		resp.RingSeqs = len(plan.Rings)
	}
	if rc, ok := pl.(remapCarrier); ok {
		if rp := rc.RemapPlan(); rp != nil {
			resp.RemapTransfers = len(rp.Transfers)
			resp.RemapInterTokens = rp.InterTokens
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Simulation pass: the end-to-end iteration readout, reusing the
	// placement and environment the planning pass built so the partition
	// is solved exactly once per request.
	res, err := trainer.RunPlanned(cfg, m.Name(), env, pl, batch)
	if err != nil {
		return nil, err
	}
	resp.IterTimeSec = res.IterTime
	resp.TokensPerSec = res.TokensPerSec
	resp.HostOverheadSec = res.HostOverhead
	return resp, nil
}

// WriteText renders the response for terminals: the sampled batch, the
// per-rank token layout, the placement, and the simulated iteration.
func (r *PlanResponse) WriteText(w io.Writer) {
	fmt.Fprintf(w, "planned a %d-sequence, %d-token batch on %d ranks:\n", r.Seqs, r.Tokens, r.World)
	for rank, tok := range r.TokensPerRank {
		fmt.Fprintf(w, "  rank %2d: %6d tokens\n", rank, tok)
	}
	fmt.Fprintf(w, "\n%s placement:\n", r.Method)
	fmt.Fprintf(w, "  local sequences   %10d\n", r.LocalSeqs)
	fmt.Fprintf(w, "  ring sequences    %10d\n", r.RingSeqs)
	fmt.Fprintf(w, "  imbalance         %10.3f (max/mean tokens per rank)\n", r.Imbalance)
	fmt.Fprintf(w, "  remap transfers   %10d (%d cross-node tokens)\n", r.RemapTransfers, r.RemapInterTokens)
	fmt.Fprintf(w, "\nsimulated iteration:\n")
	fmt.Fprintf(w, "  throughput        %10.0f tokens/s\n", r.TokensPerSec)
	fmt.Fprintf(w, "  iteration time    %10.2f ms\n", r.IterTimeSec*1e3)
	fmt.Fprintf(w, "  host overhead     %10.2f ms\n", r.HostOverheadSec*1e3)
}
