package zeppelin

import (
	"context"
	"fmt"
	"io"

	"zeppelin/internal/campaign"
	"zeppelin/internal/tune"
)

// Defaults of the tune surface: the evaluation horizon is deliberately
// shorter than a full campaign — the search runs Budget × Seeds whole
// campaigns — and the budget matches the internal search default.
const (
	DefaultTuneIters  = 60
	DefaultTuneBudget = tune.DefaultBudget
)

// TuneRequest asks for a closed-loop policy search: sweep a declared
// parameter space over full campaign runs of the given scenario and
// return the configuration that maximizes the multi-objective fitness.
// The zero value tunes the default space (the threshold policy's replan
// ratio) on a steady ArXiv stream over the default cell.
type TuneRequest struct {
	// Model names the transformer preset; empty selects "7B".
	Model string `json:"model,omitempty"`
	// Cluster is the simulated cell.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Workload is the arrival process of the evaluation scenario.
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Faults names a deterministic fault scenario the evaluations run
	// under; empty or "none" runs healthy. Candidates that enable the
	// autoscaler under a fault schedule are invalid (they score zero).
	Faults string `json:"faults,omitempty"`
	// Method is the scheduling method under test; empty selects
	// "zeppelin".
	Method string `json:"method,omitempty"`
	// Space is the search-space grammar: comma-separated key=value
	// dimensions where a value is `a|b|c` (set), `lo:hi` (interval), or
	// a single literal (pinned). Keys: policy, threshold, every,
	// replan-cost, capacity, autoscale, up-util, down-util, cooldown,
	// step. Empty selects the default space.
	Space string `json:"space,omitempty"`
	// Budget is the candidate-evaluation budget; 0 selects the default.
	Budget int `json:"budget,omitempty"`
	// Iters is the per-evaluation campaign horizon; 0 selects the
	// default (DefaultTuneIters).
	Iters int `json:"iters,omitempty"`
	// Seeds is how many seeds each candidate averages over; 0 selects 1.
	Seeds int `json:"seeds,omitempty"`
	// Weights are the fitness weights (normalized to sum to 1); nil
	// selects the defaults.
	Weights *TuneWeights `json:"weights,omitempty"`
	// SearchSeed seeds the mutation stream; 0 selects 1.
	SearchSeed int64 `json:"search_seed,omitempty"`
	// Workers bounds the evaluation pool; 0 selects GOMAXPROCS. The
	// report is bit-identical at every worker count.
	Workers int `json:"workers,omitempty"`
}

// TuneWeights are the wire fitness weights; only their ratios matter.
// Unlike the engine's weights, zero weights are omitted on the wire.
type TuneWeights struct {
	// Goodput weights campaign throughput (higher better).
	Goodput float64 `json:"goodput,omitempty"`
	// P99 weights tail iteration time (lower better).
	P99 float64 `json:"p99,omitempty"`
	// Migration weights the migration bill: replan charges plus elastic
	// state-migration seconds (lower better).
	Migration float64 `json:"migration,omitempty"`
	// Utilization weights mean per-rank busy fraction (higher better).
	Utilization float64 `json:"utilization,omitempty"`
}

// TuneParams is the wire form of one candidate configuration: the
// search engine's own point record, re-exported. Like every re-exported
// record its JSON names only ever gain fields.
type TuneParams = tune.Params

// TuneMetrics are one candidate's seed-averaged campaign observables.
type TuneMetrics = tune.Metrics

// TuneFitness is a candidate's scored breakdown: per-component
// candidate-vs-baseline improvement ratios (1 = parity, clamped to
// [0, 5]) and the weight-normalized Total. The baseline scores exactly 1.
type TuneFitness = tune.Fitness

// TuneCandidate is one evaluated configuration with its breakdown; Flags
// is the equivalent ready-to-paste `zeppelin campaign` flag set.
type TuneCandidate = tune.Candidate

// TuneReport is the wire artifact of one search. It is not the engine's
// report: the wire orders iters before seeds and always writes iters.
type TuneReport struct {
	// Space echoes the swept grammar; Budget, Iters, Seeds, and Weights
	// echo the resolved search parameters.
	Space   string      `json:"space"`
	Budget  int         `json:"budget"`
	Iters   int         `json:"iters"`
	Seeds   int         `json:"seeds"`
	Weights TuneWeights `json:"weights"`
	// Evaluated counts candidate evaluations actually run.
	Evaluated int `json:"evaluated"`
	// Baseline is the hand-tuned default the fitness normalizes
	// against; Winner is the best candidate; Improved reports whether
	// the winner strictly beats the baseline.
	Baseline TuneCandidate `json:"baseline"`
	Winner   TuneCandidate `json:"winner"`
	Improved bool          `json:"improved"`
	// Candidates lists every evaluation in deterministic order.
	Candidates []TuneCandidate `json:"candidates"`
}

// Validate reports whether the request resolves to a runnable search
// without running it — the up-front check zeppelind uses to return
// structured 400s.
func (r TuneRequest) Validate() error {
	if _, err := tune.ParseSpace(r.Space); err != nil {
		return err
	}
	if r.Budget < 0 {
		return fmt.Errorf("zeppelin: tune budget must be >= 0, got %d", r.Budget)
	}
	if r.Weights != nil {
		if w := *r.Weights; w.Goodput < 0 || w.P99 < 0 || w.Migration < 0 || w.Utilization < 0 {
			return fmt.Errorf("zeppelin: tune weights must be >= 0")
		}
	}
	return r.scenarioRequest(0).Validate()
}

// scenarioRequest is the campaign request of one evaluation seed. The
// seed schedule matches the experiment grids (base seed plus 37 per
// index), so seed 0 is the exact campaign `zeppelin campaign` runs.
func (r TuneRequest) scenarioRequest(seedIdx int64) CampaignRequest {
	iters := r.Iters
	if iters == 0 {
		iters = DefaultTuneIters
	}
	return CampaignRequest{
		Model:    r.Model,
		Cluster:  r.Cluster,
		Workload: r.Workload,
		Policy:   PolicySpec{},
		Faults:   r.Faults,
		Method:   r.Method,
		Iters:    iters,
		Seed:     DefaultSeed + 37*seedIdx,
	}
}

// RunTune executes the search in-process: grid seeding plus a
// mutation/selection loop, every candidate evaluated by running full
// campaigns of the request's scenario. Evaluations fan across the
// worker pool and the report — winner included — is bit-identical at
// every worker count.
func RunTune(ctx context.Context, req TuneRequest) (*TuneReport, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sp, err := tune.ParseSpace(req.Space)
	if err != nil {
		return nil, err
	}
	var weights tune.Weights
	if req.Weights != nil {
		weights = tune.Weights(*req.Weights)
	}
	iters := req.Iters
	if iters == 0 {
		iters = DefaultTuneIters
	}
	rep, err := tune.Search(ctx, tune.Options{
		Base: func(seed int64) campaign.Config {
			// The request validated above and resolution is
			// seed-independent, so per-seed failures cannot happen; a
			// zero Config from an impossible failure is caught by the
			// campaign's own validation.
			cfg, _ := req.scenarioRequest(seed).config()
			return cfg
		},
		Space:      sp,
		Budget:     req.Budget,
		Weights:    weights,
		Seeds:      req.Seeds,
		Iters:      iters,
		Workers:    req.Workers,
		SearchSeed: req.SearchSeed,
	})
	if err != nil {
		return nil, err
	}
	return &TuneReport{
		Space:     rep.Space,
		Budget:    rep.Budget,
		Iters:     rep.Iters,
		Seeds:     rep.Seeds,
		Weights:   TuneWeights(rep.Weights),
		Evaluated: rep.Evaluated,
		Baseline:  rep.Baseline,
		Winner:    rep.Winner,
		Improved:  rep.Improved,
		// A degenerate space evaluates nothing; the wire still says [].
		Candidates: append([]TuneCandidate{}, rep.Candidates...),
	}, nil
}

// WriteText renders the tune report for terminals: the search header,
// the per-candidate fitness table (best first), and the winning
// configuration as a ready-to-paste flag set.
func (r *TuneReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "tune: space %q, budget %d (%d evaluated), %d iters x %d seed(s)\n",
		r.Space, r.Budget, r.Evaluated, r.Iters, r.Seeds)
	fmt.Fprintf(w, "weights: goodput %.2f  p99 %.2f  migration %.2f  utilization %.2f\n\n",
		r.Weights.Goodput, r.Weights.P99, r.Weights.Migration, r.Weights.Utilization)

	rows := append([]TuneCandidate{r.Baseline}, r.Candidates...)
	fmt.Fprintf(w, "  %-44s %8s %8s %8s %8s %8s\n",
		"candidate", "fitness", "goodput", "p99", "migrate", "util")
	for _, c := range rows {
		label := c.Key
		if c.Key == r.Baseline.Key {
			label += " (baseline)"
		}
		if c.Invalid != "" {
			fmt.Fprintf(w, "  %-44s %8s invalid: %s\n", label, "-", c.Invalid)
			continue
		}
		fmt.Fprintf(w, "  %-44s %8.4f %8.3f %8.3f %8.3f %8.3f\n",
			label, c.Fitness.Total, c.Fitness.Goodput, c.Fitness.P99,
			c.Fitness.Migration, c.Fitness.Utilization)
	}
	fmt.Fprintf(w, "\nwinner: %s (fitness %.4f", r.Winner.Key, r.Winner.Fitness.Total)
	if r.Improved {
		fmt.Fprintf(w, ", beats baseline %.4f)\n", r.Baseline.Fitness.Total)
	} else {
		fmt.Fprintf(w, "; baseline %.4f stands)\n", r.Baseline.Fitness.Total)
	}
	fmt.Fprintf(w, "flags:  %s\n", r.Winner.Flags)
}
