package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"zeppelin/internal/benchfmt"
)

// wantBenchUsage asserts benchCmd rejects the flags with a usageError.
func wantBenchUsage(t *testing.T, args []string, substr string) {
	t.Helper()
	err := benchCmd(io.Discard, args, false)
	if err == nil {
		t.Fatalf("args %v must fail", args)
	}
	var ue usageError
	if !errors.As(err, &ue) {
		t.Fatalf("args %v: error %v is not a usage error", args, err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("args %v: error %q does not mention %q", args, err, substr)
	}
}

func TestBenchCmdRejectsInvalidFlags(t *testing.T) {
	wantBenchUsage(t, []string{"-iters", "1"}, "-iters")
	wantBenchUsage(t, []string{"-ranks", "banana"}, "bad ranks")
	wantBenchUsage(t, []string{"-ranks", "-8"}, "bad ranks")
	wantBenchUsage(t, []string{"-ranks", "7"}, "multiple")
	wantBenchUsage(t, []string{"positional"}, "unexpected arguments")
}

// TestBenchCmdEmitsBenchfmtSchema: the -json artifact must round-trip
// through the shared schema — the property that makes local runs and the
// CI BENCH_pr8.json artifact directly comparable.
func TestBenchCmdEmitsBenchfmtSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := benchCmd(&buf, []string{"-ranks", "64", "-iters", "4", "-json"}, false); err != nil {
		t.Fatal(err)
	}
	art, err := benchfmt.ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Source != "zeppelin bench" || len(art.Results) != 1 {
		t.Fatalf("artifact = %+v", art)
	}
	full := art.Get("BenchmarkFig15PlanFull/ranks=64")
	if full == nil {
		t.Fatalf("missing plan result: %+v", art.Results)
	}
	if full.NsPerOp <= 0 {
		t.Fatalf("latency not measured: full=%v", full.NsPerOp)
	}
	if full.Metrics["p95-micros"] <= 0 {
		t.Fatalf("full result missing p95: %+v", full.Metrics)
	}
}

// TestBenchCmdTextModeParsesAsBenchOutput: text mode prints go-test-style
// lines, so benchgate's parser accepts them unchanged.
func TestBenchCmdTextModeParsesAsBenchOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := benchCmd(&buf, []string{"-ranks", "64", "-iters", "4"}, false); err != nil {
		t.Fatal(err)
	}
	parsed, err := benchfmt.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Results) != 1 {
		t.Fatalf("parsed %d results from text mode, want 1", len(parsed.Results))
	}
	if parsed.Get("BenchmarkFig15PlanFull/ranks=64") == nil {
		t.Fatalf("text mode lines not benchgate-parseable: %+v", parsed.Results)
	}
}
