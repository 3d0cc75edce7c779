package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"zeppelin/pkg/zeppelin"
)

// fig12Section returns the body of one fig12 scenario: the lines after
// the title that starts with prefix, up to the next blank line.
func fig12Section(t *testing.T, fig12, prefix string) string {
	t.Helper()
	for _, sec := range strings.Split(fig12, "\n\n") {
		title, body, _ := strings.Cut(sec, "\n")
		if strings.HasPrefix(title, prefix) {
			return strings.TrimSuffix(body, "\n") + "\n"
		}
	}
	t.Fatalf("fig12 has no section %q:\n%s", prefix, fig12)
	return ""
}

// TestTraceCmdMatchesFig12: default `zeppelin trace` is fig12 scenario
// (b) below its header line, and -method tecp is scenario (a).
func TestTraceCmdMatchesFig12(t *testing.T) {
	var fig12 strings.Builder
	if err := experimentCmd(&fig12, "fig12", zeppelin.Options{Seeds: 1, Workers: 1}, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args    []string
		section string
	}{
		{nil, "b)"},
		{[]string{"-method", "tecp"}, "a)"},
	} {
		var out strings.Builder
		if err := traceCmd(&out, c.args); err != nil {
			t.Fatal(err)
		}
		_, body, _ := strings.Cut(out.String(), "\n")
		if want := fig12Section(t, fig12.String(), c.section); body != want {
			t.Errorf("trace %v differs from fig12 section %s:\n%s\nwant:\n%s", c.args, c.section, body, want)
		}
	}
}

// TestTraceCmdRejectsInvalidFlags: ranks outside the planned world and
// malformed lists are usage errors, not an empty timeline.
func TestTraceCmdRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		args   []string
		substr string
	}{
		{[]string{"-ranks", "99"}, "outside world"},
		{[]string{"-ranks", "-1"}, "outside world"},
		{[]string{"-nodes", "1", "-ranks", "0,8"}, "outside world"},
		{[]string{"-ranks", "x"}, "bad ranks"},
		{[]string{"-lengths", "4096,y"}, "bad lengths"},
		{[]string{"-method", "warp"}, "unknown method"},
		{[]string{"extra"}, "unexpected arguments"},
	}
	for _, c := range cases {
		err := traceCmd(io.Discard, c.args)
		var ue usageError
		if err == nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), c.substr) {
			t.Fatalf("args %v: err = %v, want usage error mentioning %q", c.args, err, c.substr)
		}
	}
}

// TestPlanCmd: the text report carries the plan facts, and -json is the
// marshalled response of the same request through the SDK.
func TestPlanCmd(t *testing.T) {
	var text strings.Builder
	if err := planCmd(&text, []string{"-seed", "1"}, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"planned a 7-sequence, 65536-token batch on 16 ranks",
		"local sequences            2",
		"ring sequences             5",
		"remap transfers           16 (1223 cross-node tokens)",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("plan output missing %q:\n%s", want, text.String())
		}
	}

	var got bytes.Buffer
	if err := planCmd(&got, []string{"-json", "-seed", "42"}, false); err != nil {
		t.Fatal(err)
	}
	resp, err := zeppelin.Plan(context.Background(), zeppelin.PlanRequest{Model: "7B", Dataset: "arxiv", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("plan -json:\n%s\nwant:\n%s", got.String(), want.String())
	}

	var ue usageError
	if err := planCmd(io.Discard, []string{"-nodes", "-1"}, false); !errors.As(err, &ue) {
		t.Fatalf("negative -nodes: err = %v, want a usage error", err)
	}
}
