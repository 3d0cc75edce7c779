// Command zeppelin regenerates the paper's evaluation tables and figures
// on the simulated cluster substrate, and runs streaming long-horizon
// campaigns on top of the same cells. It is the reference client of the
// public pkg/zeppelin API: every subcommand drives the same versioned
// surface the zeppelind HTTP daemon serves.
//
// Usage:
//
//	zeppelin [-seeds N] [-workers N] [-json] <experiment>
//	zeppelin [-seeds N] [-workers N] campaign [-iters N] [-arrival P] [-drift D] [-policy P] [-json] [...]
//	zeppelin [-seeds N] [-workers N] tune [-space S] [-budget N] [-weights W] [-json] [...]
//	zeppelin bench [-ranks R1,R2] [-iters N] [-json]
//	zeppelin replay [-iters N] [-seed N] [-flip iter=N:decision=replan|reuse] [-json] [...]
//	zeppelin plan [-model M] [-cluster P] [-nodes N] [-dataset D] [-method M] [-seed N] [-json] [...]
//	zeppelin trace [-method M] [-lengths L1,L2] [-ranks R1,R2] [-width N] [...]
//	zeppelin -version
//
// where <experiment> is one of: fig1, table2, fig3, fig5, fig8, fig9,
// fig10, fig11, fig12, fig13, fig14, fig15, table3, all.
//
// -workers bounds the concurrent simulation pool (default GOMAXPROCS);
// results are bit-identical for every worker count. -json emits the
// experiment's structured results as a JSON artifact instead of the
// paper-style text rendering.
//
// The campaign subcommand simulates a multi-iteration training stream:
// an arrival process (steady, poisson, bursty, drifting mixture, or
// deterministic trace replay) feeds batches to every compared method
// while a replanning controller decides when to re-run the partitioner.
// A -faults scenario (straggler, NIC degradation, fail-stop node loss,
// elastic shrink/grow) runs the whole stream under a deterministic
// fault schedule, with fault/recovery markers in the per-iteration
// records and the rendered timeline.
//
// The tune subcommand closes the loop: it sweeps a declared parameter
// space — replan policy and threshold, replan cost, admission capacity,
// autoscaler gains — over full campaign runs of one scenario (default:
// the fig13 drifting mixture) and reports the configuration that
// maximizes a weighted fitness of goodput, p99 iteration time,
// migration cost, and utilization, as a ready-to-paste campaign flag
// set. The search is deterministic: grid seeding plus a seeded
// mutation/selection loop, bit-identical at every -workers count.
//
// The bench subcommand measures the full partition solve in-process
// (the fig15 machinery: plan latency and allocations over a churning
// stream, one BenchmarkFig15PlanFull/ranks=N entry per world size) and
// emits results in the shared benchfmt JSON schema — the
// same shape as the CI bench job's BENCH_*.json artifact, so the same
// tooling reads both (the measurements themselves differ: CI aggregates
// go-test samples, bench reports per-rank-count p50s).
//
// The replay subcommand is the counterfactual engine: it re-runs one
// campaign deterministically and, with -flip iter=N:decision=replan|reuse,
// inverts exactly one replan verdict, reporting the goodput, p99
// iteration time, and migration-cost delta against the factual run.
// Without -flip the replay is a determinism check — it must reproduce
// the factual event stream bit for bit. The campaign cell is shaped by
// the same flags the campaign subcommand takes, defaulting to the
// drifting arrival so the threshold controller has verdicts worth
// flipping.
//
// The plan subcommand samples one batch, runs the hierarchical
// partitioner (Alg. 1 + 2) and the Eq. 2 remap, and prints the placement
// with the simulated iteration; -json prints the exact /v1/plan body.
// The trace subcommand simulates one attention layer of a batch and
// renders its Fig. 12 timeline: the defaults are fig12 scenario (b),
// and -method tecp is scenario (a).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"zeppelin/pkg/zeppelin"
)

// usageError marks a flag-validation failure: main prints usage and
// exits 2, the convention every experiment flag already follows.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usageErrorf(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	seeds := flag.Int("seeds", 3, "independently sampled batches (or campaigns) averaged per cell; must be >= 1")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers; must be >= 1")
	jsonOut := flag.Bool("json", false, "emit structured results as JSON instead of text")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(zeppelin.Version()) //nolint:errcheck
		return
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "zeppelin: -seeds must be >= 1, got %d\n", *seeds)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "zeppelin: -workers must be >= 1, got %d\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "campaign" {
		if err := campaignCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "tune" {
		if err := tuneCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "serve" {
		if err := serveCmd(os.Stdout, args[1:], *seeds, *workers, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "bench" {
		if err := benchCmd(os.Stdout, args[1:], *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "replay" {
		if err := replayCmd(os.Stdout, args[1:], *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "plan" {
		if err := planCmd(os.Stdout, args[1:], *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if args[0] == "trace" {
		if err := traceCmd(os.Stdout, args[1:]); err != nil {
			fail(err)
		}
		return
	}
	if len(args) != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := args[0]
	if name != "all" && !zeppelin.IsExperiment(name) {
		fmt.Fprintf(os.Stderr, "zeppelin: unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	opts := zeppelin.Options{Seeds: *seeds, Workers: *workers}
	if err := experimentCmd(os.Stdout, name, opts, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "zeppelin:", err)
		os.Exit(1)
	}
}

// fail reports a subcommand error, exiting 2 with usage for
// flag-validation failures and 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "zeppelin:", err)
	var ue usageError
	if errors.As(err, &ue) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(1)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: zeppelin [-seeds N] [-workers N] [-json] <experiment>
       zeppelin [-seeds N] [-workers N] campaign [flags]
       zeppelin [-seeds N] [-workers N] serve [flags]
       zeppelin [-seeds N] [-workers N] tune [flags]
       zeppelin bench [-ranks R1,R2] [-iters N] [-json]
       zeppelin replay [flags]
       zeppelin plan [flags]
       zeppelin trace [flags]
       zeppelin -version

experiments: %s
                (fig15: full-solve plan latency p50/p95 and allocations
                per plan, 64 to 32768 ranks)
campaign flags: -iters N  -arrival steady|poisson|bursty|drift|replay
                -dataset NAME  -drift a,b,c  -policy always|never|threshold|periodic
                -threshold X  -every N  -replan-cost SECONDS (>= 0)
                -capacity X (admission capacity factor; 0 selects 1.25)
                -faults none|straggler|nic|failstop|shrink[:k=v,...]
                -autoscale on|k=v,... (closed-loop world sizing; keys
                min|max|up-util|down-util|step|cooldown)
                -serve SPEC (serving scenario; replaces the cell flags)  -json
serve flags:    -serve SPEC (clients=N,arrival=poisson|gamma:cv=X|weibull:shape=X,
                rate=R@from-to;...,slo=name:p99=DUR:prio=N;...,dataset=NAME,
                sessions=N,prefix=F,form=fcfs|priority|sjf,horizon=DUR)
                -iters N  -trace FILE (replay NDJSON requests)
                -dump-trace FILE (record the timeline and exit)  -seed N  -json
tune flags:     -space GRAMMAR (key=value dims; a|b sets, lo:hi intervals;
                keys policy|threshold|every|replan-cost|capacity|autoscale|
                up-util|down-util|cooldown|step)  -budget N  -iters N
                -weights GOODPUT,P99,MIGRATION,UTIL  -search-seed N
                (plus the campaign cell flags: -arrival, -dataset, -drift,
                -faults)  -json
bench flags:    -ranks 64,256 (world sizes, multiples of 8)  -iters N
                -json (benchfmt artifact, the BENCH_*.json schema);
                one BenchmarkFig15PlanFull/ranks=N full-solve entry per size
replay flags:   -iters N  -seed N  -flip iter=N:decision=replan|reuse
                (plus the campaign cell flags: -arrival, -dataset, -drift,
                -policy, -threshold, -every, -replan-cost, -faults)  -json
plan flags:     -model 3B|7B|13B|30B|8x550M  -cluster A|B|C  -nodes N
                -tokens-per-gpu N  -capacity X  -dataset NAME
                -method zeppelin|tecp|tecp-routed|llamacp|hybriddp|packing
                -seed N  -json (the /v1/plan response body)
trace flags:    the plan flags except -json (default -model 3B), plus
                -lengths L1,L2 (ignored with -dataset)  -ranks R1,R2
                (each in [0, world))  -width N
`, strings.Join(append(zeppelin.Experiments(), "all"), " "))
	flag.PrintDefaults()
}

// experimentCmd renders or JSON-emits one experiment, or every one in
// paper order for `all`.
func experimentCmd(w io.Writer, name string, opts zeppelin.Options, jsonOut bool) error {
	ctx := context.Background()
	if !jsonOut {
		if name == "all" {
			return zeppelin.RenderAllExperiments(ctx, w, opts)
		}
		return zeppelin.RenderExperiment(ctx, w, name, opts)
	}
	var payload any
	if name == "all" {
		all, err := zeppelin.RunAllExperiments(ctx, opts)
		if err != nil {
			return err
		}
		payload = all
	} else {
		r, err := zeppelin.RunExperiment(ctx, name, opts)
		if err != nil {
			return err
		}
		payload = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// ---------------------------------------------------------------------
// bench subcommand
// ---------------------------------------------------------------------

// benchCmd measures the full partition solve through the public API and
// emits results in the shared benchfmt schema. Text mode prints
// go-test-style benchmark lines, which benchgate can also parse.
func benchCmd(w io.Writer, args []string, jsonOut bool) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	ranksFlag := fs.String("ranks", "64,256", "comma-separated world sizes (ranks, multiples of 8)")
	iters := fs.Int("iters", 0, "planning stream length per cell; must be >= 2 (0 selects the fig15 default)")
	subJSON := fs.Bool("json", false, "emit the benchfmt artifact as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("bench: unexpected arguments %q", fs.Args())
	}
	if *iters != 0 && *iters < 2 {
		return usageErrorf("bench: -iters must be >= 2, got %d", *iters)
	}
	ranks, err := parseInts("bench", "ranks", *ranksFlag)
	if err != nil {
		return err
	}
	for _, r := range ranks {
		if r <= 0 {
			return usageErrorf("bench: bad ranks value %d", r)
		}
	}
	jsonOut = jsonOut || *subJSON

	art, err := zeppelin.RunPlannerBench(context.Background(),
		zeppelin.BenchOptions{Ranks: ranks, Iters: *iters})
	if err != nil {
		return usageError{err}
	}
	if jsonOut {
		return art.WriteJSON(w)
	}
	return art.WriteText(w)
}

// parseInts resolves a comma-separated integer list flag.
func parseInts(cmd, name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, usageErrorf("%s: bad %s value %q", cmd, name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// plan and trace subcommands
// ---------------------------------------------------------------------

// planFlags registers the cell flags plan and trace share, writing them
// into req; req's Model is the -model default.
func planFlags(fs *flag.FlagSet, req *zeppelin.PlanRequest) {
	fs.StringVar(&req.Model, "model", req.Model, "model preset: 3B|7B|13B|30B|8x550M")
	fs.StringVar(&req.Cluster.Preset, "cluster", "A", "cluster preset: A|B|C")
	fs.IntVar(&req.Cluster.Nodes, "nodes", 2, "node count")
	fs.IntVar(&req.Cluster.TokensPerGPU, "tokens-per-gpu", 4096, "per-GPU context budget")
	fs.Float64Var(&req.Cluster.Capacity, "capacity", 0,
		"admission capacity factor (per-rank ceiling = capacity × tokens-per-gpu × TP); 0 selects the default (1.25)")
	fs.StringVar(&req.Dataset, "dataset", "arxiv", "dataset the batch is sampled from")
	fs.StringVar(&req.Method, "method", "zeppelin", "scheduling method: zeppelin|tecp|tecp-routed|llamacp|hybriddp|packing")
	fs.Int64Var(&req.Seed, "seed", 0, "batch sampling seed; 0 selects the default (1000)")
}

// planCmd plans one sampled batch through the public API and prints the
// placement and simulated iteration; -json prints the exact /v1/plan
// response body.
func planCmd(w io.Writer, args []string, jsonOut bool) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	req := zeppelin.PlanRequest{Model: "7B"}
	planFlags(fs, &req)
	subJSON := fs.Bool("json", false, "emit the /v1/plan response body as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("plan: unexpected arguments %q", fs.Args())
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	resp, err := zeppelin.Plan(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut || *subJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	resp.WriteText(w)
	return nil
}

// traceCmd simulates one attention layer of the planned batch and
// renders its Fig. 12 timeline; the defaults reproduce fig12 scenario
// (b), and -method tecp scenario (a).
func traceCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	req := zeppelin.TraceRequest{PlanRequest: zeppelin.PlanRequest{Model: "3B"}}
	planFlags(fs, &req.PlanRequest)
	lengths := fs.String("lengths", "65536", "comma-separated sequence lengths (ignored with -dataset)")
	ranks := fs.String("ranks", "0,8,12", "comma-separated ranks to render, each in [0, world)")
	fs.IntVar(&req.Width, "width", 100, "timeline width in columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("trace: unexpected arguments %q", fs.Args())
	}
	var err error
	if !hasFlag(fs, "dataset") {
		if req.Lengths, err = parseInts("trace", "lengths", *lengths); err != nil {
			return err
		}
	}
	if req.Ranks, err = parseInts("trace", "ranks", *ranks); err != nil {
		return err
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	return zeppelin.RenderTrace(context.Background(), w, req)
}

// ---------------------------------------------------------------------
// replay subcommand
// ---------------------------------------------------------------------

// parseFlip resolves "-flip iter=N:decision=replan|reuse".
func parseFlip(s string) (*zeppelin.FlipSpec, error) {
	f := &zeppelin.FlipSpec{Iter: -1}
	for _, part := range strings.Split(s, ":") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, usageErrorf("replay: bad -flip component %q (want key=value)", part)
		}
		switch k {
		case "iter":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, usageErrorf("replay: bad -flip iter %q", v)
			}
			f.Iter = n
		case "decision":
			f.Decision = v
		default:
			return nil, usageErrorf("replay: unknown -flip key %q (want iter, decision)", k)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, usageError{err}
	}
	return f, nil
}

// replayCmd runs the counterfactual engine: one deterministic campaign
// re-run with at most one replan verdict flipped, reporting the
// goodput/p99/migration-cost delta against the factual run (or a
// bit-identity check with no flip).
func replayCmd(w io.Writer, args []string, jsonOut bool) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var req zeppelin.ReplayRequest
	fs.IntVar(&req.Campaign.Iters, "iters", 50, "campaign iterations; must be >= 1")
	fs.Int64Var(&req.Campaign.Seed, "seed", 0, "campaign RNG seed")
	workload := workloadFlags(fs, "drift")
	policyFlags(fs, &req.Campaign)
	fs.StringVar(&req.Campaign.Faults, "faults", "none",
		"fault scenario: none|straggler|nic|failstop|shrink, optionally parameterized as name:key=v,...")
	flipSpec := fs.String("flip", "", "decision to invert, as iter=N:decision=replan|reuse (empty checks bit-identity)")
	subJSON := fs.Bool("json", false, "emit the replay report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("replay: unexpected arguments %q", fs.Args())
	}
	if req.Campaign.Iters < 1 {
		return usageErrorf("replay: -iters must be >= 1, got %d", req.Campaign.Iters)
	}
	if req.Campaign.ReplanCostSec < 0 {
		return usageErrorf("replay: -replan-cost must be >= 0, got %v", req.Campaign.ReplanCostSec)
	}
	jsonOut = jsonOut || *subJSON

	req.Campaign.Workload = workload()
	if err := req.Campaign.Validate(); err != nil {
		return usageError{err}
	}
	if *flipSpec != "" {
		f, err := parseFlip(*flipSpec)
		if err != nil {
			return err
		}
		req.Flip = f
	}
	rep, err := zeppelin.RunReplay(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(w)
	return nil
}

// ---------------------------------------------------------------------
// campaign subcommand
// ---------------------------------------------------------------------

// campaignCmd runs the streaming campaign comparison through the public
// API: the paper's four methods over one arrival/policy/faults cell,
// seed-averaged, rendered as the row table plus Zeppelin's seed-0
// timeline (or the JSON campaign artifact).
func campaignCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var req zeppelin.CampaignRequest
	fs.IntVar(&req.Iters, "iters", 50, "campaign iterations; must be >= 1")
	workload := workloadFlags(fs, "steady")
	policyFlags(fs, &req)
	fs.Float64Var(&req.Cluster.Capacity, "capacity", 0,
		"admission capacity factor (per-rank ceiling = capacity × tokens-per-gpu × TP); 0 selects the default (1.25)")
	fs.StringVar(&req.Faults, "faults", "none",
		"fault scenario: none|straggler|nic|failstop|shrink, optionally parameterized as name:key=val,...")
	autoscaleSpec := fs.String("autoscale", "",
		"closed-loop autoscaler: \"on\" or key=val,... (min|max|up-util|down-util|step|cooldown); empty disables")
	serveSpec := fs.String("serve", "",
		"serving scenario (clients=N,arrival=...,rate=...,slo=...); replaces the arrival/policy/faults cell with a request stream")
	subJSON := fs.Bool("json", false, "emit the campaign artifact as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("campaign: unexpected arguments %q", fs.Args())
	}
	if req.Iters < 1 {
		return usageErrorf("campaign: -iters must be >= 1, got %d", req.Iters)
	}
	if req.ReplanCostSec < 0 {
		return usageErrorf("campaign: -replan-cost must be >= 0, got %v", req.ReplanCostSec)
	}
	jsonOut = jsonOut || *subJSON

	if *serveSpec != "" || hasFlag(fs, "serve") {
		// Serve mode: the serve spec owns the arrival process and there is
		// no replanning controller — reject any training-cell flag the
		// user explicitly set alongside it.
		for _, conflict := range []string{"arrival", "dataset", "drift", "policy", "threshold", "every", "faults", "autoscale"} {
			if hasFlag(fs, conflict) {
				return usageErrorf("campaign: -%s conflicts with -serve (the serve spec owns the request stream)", conflict)
			}
		}
		spec, err := zeppelin.ParseServeSpec(*serveSpec)
		if err != nil {
			return usageError{err}
		}
		// A serve request carries none of the training-cell defaults.
		req = zeppelin.CampaignRequest{
			Cluster:       req.Cluster,
			Iters:         req.Iters,
			ReplanCostSec: req.ReplanCostSec,
			Serve:         spec,
		}
		if err := req.Validate(); err != nil {
			return usageError{err}
		}
		cmp, err := zeppelin.CompareCampaigns(context.Background(), req, seeds, workers)
		if err != nil {
			return err
		}
		if jsonOut {
			return cmp.WriteJSON(w)
		}
		return cmp.WriteText(w)
	}

	req.Workload = workload()
	if *autoscaleSpec != "" {
		as, err := zeppelin.ParseAutoscaleSpec(*autoscaleSpec)
		if err != nil {
			return usageError{err}
		}
		req.Autoscale = as
	}
	// Resolution failures — unknown datasets, arrivals, policies, fault
	// scenarios, out-of-range parameters — are flag mistakes: usage.
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	cmp, err := zeppelin.CompareCampaigns(context.Background(), req, seeds, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return cmp.WriteJSON(w)
	}
	return cmp.WriteText(w)
}

// workloadFlags registers the arrival flags campaign, replay and tune
// share; the returned func reads them back as a WorkloadSpec once fs is
// parsed.
func workloadFlags(fs *flag.FlagSet, defaultArrival string) func() zeppelin.WorkloadSpec {
	arrival := fs.String("arrival", defaultArrival, "arrival process: steady|poisson|bursty|drift|replay")
	dataset := fs.String("dataset", "arxiv", "base dataset for steady/poisson/bursty/replay arrivals")
	drift := fs.String("drift", "arxiv,github,prolong64k", "comma-separated dataset waypoints for -arrival drift")
	return func() zeppelin.WorkloadSpec {
		ws := zeppelin.WorkloadSpec{Dataset: *dataset, Arrival: *arrival}
		if *arrival == "drift" {
			ws.DriftPath = strings.Split(*drift, ",")
		}
		return ws
	}
}

// policyFlags registers the replanning flags campaign and replay share,
// writing them into req.
func policyFlags(fs *flag.FlagSet, req *zeppelin.CampaignRequest) {
	fs.StringVar(&req.Policy.Name, "policy", "threshold", "replan policy: always|never|threshold|periodic")
	fs.Float64Var(&req.Policy.Threshold, "threshold", zeppelin.DefaultThreshold, "imbalance ratio for -policy threshold")
	fs.IntVar(&req.Policy.Every, "every", 10, "replan cadence for -policy periodic")
	fs.Float64Var(&req.ReplanCostSec, "replan-cost", zeppelin.DefaultReplanCostSec,
		"seconds charged per replan; must be >= 0 (0 selects the default)")
}

// hasFlag reports whether a flag was explicitly set on the command line.
func hasFlag(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// ---------------------------------------------------------------------
// serve subcommand
// ---------------------------------------------------------------------

// serveCmd compares the routing objectives (balance vs KV-affinity) on
// one serving scenario through the public API, seed-averaged with
// per-SLO-class tables. -dump-trace records the scenario's deterministic
// timeline as NDJSON (trace-replay v2) and exits; -trace replays such a
// file instead of generating the timeline.
func serveCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	spec := fs.String("serve", "",
		"serving scenario (clients=N,arrival=...,rate=...,slo=...); empty selects every default")
	iters := fs.Int("iters", 10000, "tick horizon; the stream ends early when the timeline drains")
	seed := fs.Int64("seed", 0, "timeline seed for -dump-trace; 0 selects the default")
	tracePath := fs.String("trace", "", "replay a recorded NDJSON request trace instead of generating the timeline")
	dumpPath := fs.String("dump-trace", "", "write the scenario's deterministic timeline as NDJSON and exit")
	capacity := fs.Float64("capacity", 0,
		"admission capacity factor (per-rank ceiling = capacity × tokens-per-gpu × TP); 0 selects the default (1.25)")
	subJSON := fs.Bool("json", false, "emit the serving comparison as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("serve: unexpected arguments %q", fs.Args())
	}
	if *iters < 1 {
		return usageErrorf("serve: -iters must be >= 1, got %d", *iters)
	}
	jsonOut = jsonOut || *subJSON

	wireSpec, err := zeppelin.ParseServeSpec(*spec)
	if err != nil {
		return usageError{err}
	}
	if *dumpPath != "" {
		events, err := zeppelin.GenerateServeTimeline(wireSpec, *seed)
		if err != nil {
			return usageError{err}
		}
		f, err := os.Create(*dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := zeppelin.WriteServeTrace(f, events); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d requests to %s\n", len(events), *dumpPath)
		return f.Close()
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return usageError{err}
		}
		events, err := zeppelin.ReadServeTrace(f)
		f.Close()
		if err != nil {
			return usageError{err}
		}
		wireSpec.Trace = events
		wireSpec.TraceName = *tracePath
	}
	req := zeppelin.CampaignRequest{
		Cluster: zeppelin.ClusterSpec{Capacity: *capacity},
		Iters:   *iters,
		Serve:   wireSpec,
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	cmp, err := zeppelin.CompareServeRoutes(context.Background(), req, seeds, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return cmp.WriteJSON(w)
	}
	return cmp.WriteText(w)
}

// ---------------------------------------------------------------------
// tune subcommand
// ---------------------------------------------------------------------

// parseTuneWeights resolves "-weights goodput,p99,migration,util" into
// the wire weights; only the ratios matter.
func parseTuneWeights(s string) (*zeppelin.TuneWeights, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, usageErrorf("tune: -weights wants 4 comma-separated values (goodput,p99,migration,utilization), got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, usageErrorf("tune: bad -weights value %q", p)
		}
		vals[i] = v
	}
	return &zeppelin.TuneWeights{
		Goodput: vals[0], P99: vals[1], Migration: vals[2], Utilization: vals[3],
	}, nil
}

// tuneCmd runs the closed-loop policy search through the public API:
// sweep the declared space over full campaigns of the scenario (default
// the fig13 drifting mixture, where replan policy actually matters) and
// report the fittest configuration as a ready-to-paste flag set. The
// report is bit-identical at every -workers count; -seeds averages each
// candidate over that many campaign seeds.
func tuneCmd(w io.Writer, args []string, seeds, workers int, jsonOut bool) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	space := fs.String("space", "", "search-space grammar: key=value dims, `a|b` sets, `lo:hi` intervals (empty selects the default space)")
	budget := fs.Int("budget", zeppelin.DefaultTuneBudget, "candidate-evaluation budget; must be >= 1")
	iters := fs.Int("iters", zeppelin.DefaultTuneIters, "per-evaluation campaign horizon; must be >= 1")
	weightsSpec := fs.String("weights", "", "fitness weights as goodput,p99,migration,utilization (empty selects 0.4,0.2,0.2,0.2)")
	searchSeed := fs.Int64("search-seed", 0, "mutation-stream seed; 0 selects 1")
	workload := workloadFlags(fs, "drift")
	faultsSpec := fs.String("faults", "none",
		"fault scenario the evaluations run under: none|straggler|nic|failstop|shrink[:k=v,...]")
	subJSON := fs.Bool("json", false, "emit the tune report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usageErrorf("tune: unexpected arguments %q", fs.Args())
	}
	if *budget < 1 {
		return usageErrorf("tune: -budget must be >= 1, got %d", *budget)
	}
	if *iters < 1 {
		return usageErrorf("tune: -iters must be >= 1, got %d", *iters)
	}
	jsonOut = jsonOut || *subJSON

	req := zeppelin.TuneRequest{
		Workload:   workload(),
		Faults:     *faultsSpec,
		Space:      *space,
		Budget:     *budget,
		Iters:      *iters,
		Seeds:      seeds,
		SearchSeed: *searchSeed,
		Workers:    workers,
	}
	if *weightsSpec != "" {
		tw, err := parseTuneWeights(*weightsSpec)
		if err != nil {
			return err
		}
		req.Weights = tw
	}
	if err := req.Validate(); err != nil {
		return usageError{err}
	}
	rep, err := zeppelin.RunTune(context.Background(), req)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(w)
	return nil
}
