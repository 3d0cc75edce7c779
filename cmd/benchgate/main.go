// Command benchgate is the benchmark-regression gate of the CI pipeline.
// It parses `go test -bench` text output into the shared benchfmt JSON
// schema, optionally writes it as an artifact (the BENCH_pr8.json the CI
// bench job uploads), and compares planner benchmarks against a
// checked-in baseline — exiting 1 when any gated benchmark's ns/op grew
// beyond the threshold, so planning-latency regressions fail the PR
// instead of landing silently.
//
// Usage:
//
//	go test -run XXX -bench . -benchtime 3x -benchmem -count 5 . | \
//	    benchgate -emit BENCH_pr8.json -baseline BENCH_baseline.json
//
//	benchgate -input bench.txt -emit BENCH_pr8.json               # parse only
//	benchgate -input bench.txt -baseline BENCH_baseline.json -update
//
// -input accepts either `go test -bench` text or an already-distilled
// benchfmt JSON artifact (zeppelin-loadgen -bench, `zeppelin bench
// -json`), sniffed automatically. The default gate covers the planner
// stack (Fig15 plan paths, the partitioner, the remap solver) plus the
// loadgen service-throughput headline; -gate swaps in any regexp. Benchmarks
// missing from either side are reported and skipped, never failed, so
// adding or retiring a benchmark cannot brick CI — refresh the baseline
// with -update (or locally via the README recipe) to re-cover them.
// Aggregation across -count samples takes the minimum ns/op, the
// least-noise statistic for threshold gating.
//
// -ratio 'A/B' gates two benchmarks from the SAME run against each
// other instead of against a checked-in baseline: fail when A's ns/op
// exceeds B's by more than the threshold. Because both sides come from
// one process on one machine, the gate is hardware-independent — it is
// how CI pins decision-tracing overhead (BenchmarkDecisionOverhead /
// BenchmarkDecisionBaseline ≤ 1.05) without a stored artifact:
//
//	go test -run XXX -bench 'Decision(Baseline|Overhead)' -count 5 . | \
//	    benchgate -ratio 'BenchmarkDecisionOverhead/BenchmarkDecisionBaseline' -threshold 0.05
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"unicode"

	"zeppelin/internal/benchfmt"
)

// DefaultGate selects the benchmarks the pipeline fails on: the
// planner stack plus zeppelin-loadgen's service-throughput headline
// (BenchmarkLoadgenPlan encodes plans/sec as ns/plan).
const DefaultGate = `^Benchmark(Fig15Plan|PartitionerPlan|RemapSolve|LoadgenPlan)`

func main() {
	input := flag.String("input", "-", `bench output to parse ("-" = stdin)`)
	emit := flag.String("emit", "", "write the parsed artifact (benchfmt JSON) to this file")
	baseline := flag.String("baseline", "", "baseline artifact to gate against (skip gating when empty)")
	threshold := flag.Float64("threshold", 0.15, "allowed ns/op growth fraction before failing (0.15 = +15%)")
	gate := flag.String("gate", DefaultGate, "regexp of benchmark names the gate applies to")
	ratio := flag.String("ratio", "", "gate benchmark A against B from the same run, as 'A/B' (baseline-free)")
	update := flag.Bool("update", false, "rewrite -baseline from the current input instead of gating")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchgate: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *threshold <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: -threshold must be > 0, got %v\n", *threshold)
		os.Exit(2)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cur, err := readInput(in)
	if err != nil {
		fatal(err)
	}
	if len(cur.Results) == 0 {
		fatal(fmt.Errorf("no benchmark results found in %s", *input))
	}
	if *emit != "" {
		if err := writeArtifact(*emit, cur); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %d results to %s\n", len(cur.Results), *emit)
	}
	if *ratio != "" {
		if err := gateRatio(cur, *ratio, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			if errors.Is(err, errRatioUsage) {
				// The invocation is wrong (missing side, zero
				// denominator), not the code under test: exit 2 like
				// every other usage error, so CI can tell a broken gate
				// from a real regression.
				os.Exit(2)
			}
			os.Exit(1)
		}
	}
	if *baseline == "" {
		return
	}
	if *update {
		if err := writeArtifact(*baseline, cur); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: refreshed baseline %s (%d results)\n", *baseline, len(cur.Results))
		return
	}

	bf, err := os.Open(*baseline)
	if err != nil {
		fatal(err)
	}
	base, err := benchfmt.ReadFile(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	regressions, skipped := benchfmt.Compare(base, cur, gateRe, *threshold)
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "benchgate: skipped (no pairable baseline): %s\n", s)
	}
	gated := 0
	for _, r := range cur.Results {
		if gateRe.MatchString(r.Name) {
			gated++
		}
	}
	if gated == 0 {
		fatal(fmt.Errorf("gate %q matched no benchmarks in current results", *gate))
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d gated benchmark(s) within +%.0f%% of baseline\n",
		gated, *threshold*100)
}

// errRatioUsage marks -ratio failures where the gate invocation itself
// is wrong — bad spec, a side missing from the input, or a zero-valued
// denominator that would make the ratio Inf/NaN. main exits 2 for
// these (like every other usage error) and reserves exit 1 for real
// regressions, so a misconfigured gate can never pass silently OR read
// as a performance failure.
var errRatioUsage = errors.New("ratio gate unusable")

// gateRatio enforces a same-run ratio gate: spec is "A/B", and A's
// ns/op must not exceed B's by more than the threshold fraction. Both
// benchmarks must be present in the current results — unlike baseline
// gating there is no skip path, because a missing side means the bench
// invocation itself is wrong, not that a benchmark was retired.
func gateRatio(cur *benchfmt.File, spec string, threshold float64) error {
	num, den, ok := strings.Cut(spec, "/")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("bad -ratio %q: want 'BenchmarkA/BenchmarkB': %w", spec, errRatioUsage)
	}
	a, b := cur.Get(num), cur.Get(den)
	if a == nil || b == nil {
		return fmt.Errorf("-ratio %q: benchmark(s) missing from input (have %s=%v %s=%v): %w",
			spec, num, a != nil, den, b != nil, errRatioUsage)
	}
	if b.NsPerOp <= 0 {
		return fmt.Errorf("-ratio %q: denominator %s has no ns/op (%.0f) — ratio would divide by zero: %w",
			spec, den, b.NsPerOp, errRatioUsage)
	}
	if a.NsPerOp <= 0 {
		return fmt.Errorf("-ratio %q: numerator %s has no ns/op (%.0f): %w",
			spec, num, a.NsPerOp, errRatioUsage)
	}
	got := a.NsPerOp / b.NsPerOp
	if limit := 1 + threshold; got > limit {
		return fmt.Errorf("REGRESSION %s = %.3f, limit %.3f (%s %.0f ns/op vs %s %.0f ns/op)",
			spec, got, limit, num, a.NsPerOp, den, b.NsPerOp)
	}
	fmt.Fprintf(os.Stderr, "benchgate: ratio %s = %.3f within limit %.3f\n", spec, got, 1+threshold)
	return nil
}

// readInput accepts either `go test -bench` text or an already-distilled
// benchfmt JSON artifact (what zeppelin-loadgen -bench and `zeppelin
// bench -json` emit), sniffed by the leading byte — so producers that
// speak the schema natively gate without a text round-trip.
func readInput(in io.Reader) (*benchfmt.File, error) {
	raw, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimLeftFunc(raw, unicode.IsSpace); len(trimmed) > 0 && trimmed[0] == '{' {
		return benchfmt.ReadFile(bytes.NewReader(trimmed))
	}
	return benchfmt.Parse(bytes.NewReader(raw))
}

func writeArtifact(path string, f *benchfmt.File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
