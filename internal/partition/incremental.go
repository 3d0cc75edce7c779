// Incremental re-planning. Streaming campaigns re-run the partitioner
// every iteration, and a full hierarchical solve is a pure function of
// the batch and the cluster view (node split, capacity, effective-speed
// vector). The Incremental planner therefore keeps an exact-key plan
// cache: a batch repeated under an unchanged view — replayed traces,
// periodic workloads — returns the cached Result without touching the
// solver. Every other batch, including a repeat under a new speed view,
// node count or capacity, is a full solve. Every plan is thus
// bit-identical to the stateless solve at any cache state, so campaigns
// over an Incremental planner stay bit-reproducible per (Config, seed).
package partition

import (
	"fmt"

	"zeppelin/internal/seq"
)

// PlanMode identifies how the Incremental planner produced a plan.
type PlanMode uint8

// The two outcomes: a full hierarchical solve or an exact keyed-cache
// hit.
const (
	PlanFull PlanMode = iota
	PlanCached
)

// String names a mode for stats output.
func (m PlanMode) String() string {
	switch m {
	case PlanFull:
		return "full"
	case PlanCached:
		return "cached"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// PlanStats describes one Plan call's decision.
type PlanStats struct {
	Mode PlanMode
	// Shared marks a PlanCached outcome that was served from the
	// process-wide shared tier rather than this planner's own cache. The
	// Mode stays PlanCached — shared hits carry the same full-solve purity
	// guarantee — but observability distinguishes the two.
	Shared bool
}

// Counters accumulates plan decisions over a planner's lifetime.
type Counters struct {
	Full   int `json:"full"`
	Cached int `json:"cached"`
	// Shared counts exact hits served from the process-wide shared tier
	// (IncrementalConfig.Shared) instead of this planner's own cache.
	Shared int `json:"shared,omitempty"`
}

// Plans returns the total number of Plan calls counted.
func (c Counters) Plans() int { return c.Full + c.Cached + c.Shared }

// IncrementalConfig tunes the planner's caches.
type IncrementalConfig struct {
	// CacheCap bounds the keyed plan cache (entries); <= 0 selects 16.
	CacheCap int
	// Shared, when set, is the process-wide plan cache tier: after a
	// local cache miss the planner probes it for an exact full-solve hit,
	// and every full solve it performs is published back. Hits are
	// bit-identical to re-solving. Nil keeps the planner fully private.
	Shared *SharedCache
}

// DefaultCacheCap is the keyed plan cache's entry bound when
// IncrementalConfig.CacheCap is not positive.
const DefaultCacheCap = 16

// Incremental is a stateful planner for re-planning hot paths. Not safe
// for concurrent use; a campaign owns exactly one.
type Incremental struct {
	shared   *SharedCache
	part     *Partitioner
	cache    planLRU
	counters Counters
}

// NewIncremental builds an incremental planner.
func NewIncremental(inc IncrementalConfig) *Incremental {
	if inc.CacheCap <= 0 {
		inc.CacheCap = DefaultCacheCap
	}
	return &Incremental{shared: inc.Shared, cache: newPlanLRU(inc.CacheCap)}
}

// Counters reports the cumulative plan decision counts.
func (p *Incremental) Counters() Counters { return p.counters }

// Reset drops the plan cache and counters, returning the planner to
// cold. Campaigns call it at start so a reused planner instance is
// deterministic run over run.
func (p *Incremental) Reset() {
	p.cache.entries = p.cache.entries[:0]
	p.counters = Counters{}
}

// Plan produces a placement for the batch under the configuration: an
// exact hit in this planner's cache, then in the shared tier, else a
// full solve. The returned Result is immutable — callers and the caches
// share it.
func (p *Incremental) Plan(cfg Config, batch []seq.Sequence) (*Result, PlanStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, PlanStats{}, err
	}
	key := p.cache.hash(cfg, batch)
	if res := p.cache.get(key, cfg, batch); res != nil {
		p.counters.Cached++
		return res, PlanStats{Mode: PlanCached}, nil
	}
	if p.shared != nil {
		if res, ok := p.shared.Get(cfg, batch); ok {
			p.counters.Shared++
			p.cache.put(key, cfg, batch, res)
			return res, PlanStats{Mode: PlanCached, Shared: true}, nil
		}
	}

	// Full hierarchical solve, reusing the partitioner's scratch.
	if p.part == nil {
		part, err := New(cfg)
		if err != nil {
			return nil, PlanStats{}, err
		}
		p.part = part
	} else if err := p.part.Reconfigure(cfg); err != nil {
		return nil, PlanStats{}, err
	}
	res, err := p.part.Plan(batch)
	if err != nil {
		return nil, PlanStats{}, err
	}
	p.counters.Full++
	p.cache.put(key, cfg, batch, res)
	if p.shared != nil {
		p.shared.Put(cfg, batch, res)
	}
	return res, PlanStats{Mode: PlanFull}, nil
}

// LoadImbalance is the plan cost metric: the maximum over ranks of
// effective token load (tokens/speed; raw tokens on a healthy view)
// divided by the mean.
func LoadImbalance(plan *seq.Plan, speeds []float64) float64 {
	var sum, max float64
	for i, t := range plan.TokensPerRank() {
		eff := float64(t)
		if speeds != nil {
			eff /= speeds[i]
		}
		sum += eff
		if eff > max {
			max = eff
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(plan.World))
}
