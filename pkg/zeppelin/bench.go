package zeppelin

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"zeppelin/internal/benchfmt"
	"zeppelin/internal/experiments"
)

// BenchOptions configure a planner measurement.
type BenchOptions struct {
	// Ranks lists the world sizes to measure (multiples of 8); empty
	// selects 64 and 256.
	Ranks []int
	// Iters is the planning-stream length per cell; <= 0 selects the
	// fig15 default, and values below 2 are rejected.
	Iters int
}

// BenchArtifact is a planner measurement in the shared
// benchfmt schema — the same JSON shape the CI bench job's BENCH_*.json
// artifact uses, so one set of tooling reads both.
type BenchArtifact struct {
	file *benchfmt.File
}

// RunPlannerBench measures the full partition solve in-process (the
// fig15 machinery: plan latency and allocations over a churning
// stream). The context is checked between rank cells.
func RunPlannerBench(ctx context.Context, o BenchOptions) (*BenchArtifact, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ranks := o.Ranks
	if len(ranks) == 0 {
		ranks = []int{64, 256}
	}
	iters := o.Iters
	if iters <= 0 {
		iters = experiments.Fig15Iters
	}
	if iters < 2 {
		return nil, fmt.Errorf("zeppelin: bench iters must be >= 2, got %d", iters)
	}
	art := &benchfmt.File{Source: "zeppelin bench", Goos: runtime.GOOS, Goarch: runtime.GOARCH}
	for _, r := range ranks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell, err := experiments.Fig15Bench(r, iters)
		if err != nil {
			return nil, err
		}
		art.Results = append(art.Results, benchfmt.Result{
			Name:        fmt.Sprintf("BenchmarkFig15PlanFull/ranks=%d", r),
			Samples:     1,
			Iters:       iters,
			NsPerOp:     cell.Full.P50Micros * 1e3,
			AllocsPerOp: cell.Full.AllocsPerPlan,
			Metrics:     map[string]float64{"p95-micros": cell.Full.P95Micros},
		})
	}
	// Name-sorted like benchfmt.Parse's output, so this artifact diffs
	// directly against the CI-produced one.
	sort.Slice(art.Results, func(i, j int) bool { return art.Results[i].Name < art.Results[j].Name })
	return &BenchArtifact{file: art}, nil
}

// WriteJSON emits the benchfmt artifact (the BENCH_*.json schema).
func (a *BenchArtifact) WriteJSON(w io.Writer) error { return a.file.WriteJSON(w) }

// WriteText prints go-test-style benchmark lines, which cmd/benchgate
// can also parse.
func (a *BenchArtifact) WriteText(w io.Writer) error {
	for _, r := range a.file.Results {
		if _, err := fmt.Fprintf(w, "%s \t%8d\t%12.0f ns/op\t%10.0f allocs/op\n",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}
