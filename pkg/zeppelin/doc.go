// Package zeppelin is the public, versioned v1 API of the Zeppelin
// simulator: a curated surface over the internal packages that lets any
// Go program — and, through cmd/zeppelind, any HTTP client — plan a
// batch, stream a long-horizon campaign, regenerate a paper experiment,
// or benchmark the planner, without importing internal/.
//
// The surface is deliberately small and wire-stable:
//
//   - Plan / PlanRequest / PlanResponse — one-shot partition+remap
//     planning of a sampled batch, with a simulated-iteration readout
//     (PlanResponse.WriteText renders it for terminals). Every plan is
//     a stateless solve, deterministic per request.
//   - RenderTrace / TraceRequest — one attention layer (forward +
//     backward) of a planned batch, rendered as the Fig. 12 timeline of
//     the chosen ranks with per-phase statistics.
//   - Campaign / CampaignRequest / CampaignEvent — iterator-style
//     streaming of a multi-iteration campaign: NewCampaign resolves the
//     request, Start binds a context, and each Next call simulates
//     exactly one iteration and returns its event. Draining a Campaign
//     is bit-identical to the internal all-at-once runner. An optional
//     AutoscaleSpec (parseable from flag syntax via ParseAutoscaleSpec)
//     attaches the autoscaler: the world grows and shrinks with
//     observed queue depth and utilization through the elastic-rescale
//     path, bounded per step, cooled down between moves, and clamped
//     to [1, cluster capacity].
//   - RunTune / TuneRequest / TuneReport — closed-loop policy tuning:
//     a multi-objective fitness function (goodput, p99 iteration time,
//     migration cost, utilization; TuneWeights normalized, fitness 1.0
//     pinned to the hand-tuned baseline) evaluated by running full
//     campaigns, searched over a declared space grammar by grid
//     seeding plus a mutation/selection loop. The report carries the
//     per-candidate fitness breakdown and the winner's ready-to-paste
//     flag set, and is bit-identical at every Workers count.
//   - ServeSpec / ParseServeSpec / CompareServeRoutes — serving
//     scenarios: the -serve flag grammar (multi-client arrivals, rate
//     windows, SLO classes, sessions/prefixes) as a wire object on
//     CampaignRequest.Serve, the balance-vs-affinity routing comparison
//     grid, and trace-replay v2 (GenerateServeTimeline,
//     WriteServeTrace/ReadServeTrace round-trip the timestamped NDJSON
//     trace format bit-identically). Serve reports carry per-SLO-class
//     metrics (ClassMetrics); IsValidationError distinguishes client
//     mistakes — bad specs, NaN dataset weights, broken traces — from
//     engine failures, which zeppelind maps to 400 vs 500.
//   - RunExperiment / RenderExperiment — every paper table and figure by
//     name ("fig8", "table3", …), structured or paper-style text.
//   - CompareCampaigns — the CLI's (method × seed) campaign comparison
//     grid, with JSON and text artifact writers.
//   - RunPlannerBench — the fig15 full-solve planner measurement in the
//     shared benchfmt artifact schema, sweeping world sizes up to the
//     32768-rank tail of the Fig. 15 grid.
//   - Version / APIVersion — build and API-revision identification.
//
// Every entry point takes a context.Context and honors cancellation:
// campaigns stop between iterations, experiment grids stop between
// simulation jobs, and the bounded worker pools drain without leaking
// goroutines. All request and response structs marshal to a JSON wire
// schema that is pinned by golden tests (testdata/*.golden.json) and
// served verbatim by the zeppelind daemon under /v1.
//
// The result records the engine itself produces are re-exported as type
// aliases rather than copied: CampaignEvent and CampaignSummary (the
// campaign's iteration row and summary), ClassMetrics, DecisionAlternative,
// and TuneParams, TuneMetrics, TuneFitness and TuneCandidate. Their JSON
// tags are the v1 schema, so their fields only ever append. Wrapper
// records whose wire form differs from the engine's — CampaignReport,
// DecisionRecord, TuneReport, TuneWeights — stay separate structs, as do
// the request types.
//
// The JSON error shape every /v1 endpoint returns on failure is
// ErrorBody: {"error":{"code":"...","message":"..."}}.
package zeppelin
