package zeppelin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestWireOutputDigests pins the sha256 of bytes the SDK actually
// produces from real runs: campaign reports and event streams, the
// decision log, a faulted and a serve campaign, the serve-route
// comparison at two worker counts, and a small tune report. The schema
// goldens marshal hand-built fixtures, so they cannot notice a result
// path that drops or rewrites a field the engine produced; this test
// can. A failure names the artifact whose bytes drifted.
func TestWireOutputDigests(t *testing.T) {
	ctx := context.Background()
	indented := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		return buf.Bytes(), err
	}
	drained := func(req CampaignRequest) ([]byte, error) {
		rep, err := RunCampaign(ctx, req)
		if err != nil {
			return nil, err
		}
		return indented(rep)
	}
	smallServe := func() CampaignRequest {
		spec, err := ParseServeSpec("clients=2,arrival=gamma:cv=2.0,rate=15@0-3s,prefix=0.6")
		if err != nil {
			t.Fatal(err)
		}
		return CampaignRequest{
			Model:   "3B",
			Cluster: ClusterSpec{Preset: "A", Nodes: 1},
			Iters:   200,
			Serve:   spec,
		}
	}
	serveCompare := func(workers int) func() ([]byte, error) {
		return func() ([]byte, error) {
			cmp, err := CompareServeRoutes(ctx, smallServe(), 2, workers)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = cmp.WriteJSON(&buf)
			return buf.Bytes(), err
		}
	}
	runTune := func() (*TuneReport, error) {
		return RunTune(ctx, TuneRequest{
			Workload: WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github"}},
			Space:    "policy=threshold,threshold=1.1:1.5",
			Budget:   3,
			Iters:    10,
			Workers:  2,
		})
	}

	// The drift campaign is drained once through the iterator so the
	// event stream, the report and the decision log come from one run.
	c, err := NewCampaign(replayCell(20), WithCampaignDecisions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	enc := json.NewEncoder(&events)
	for {
		ev, ok := c.Next()
		if !ok {
			break
		}
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	straggler := replayCell(20)
	straggler.Faults = "straggler"

	cases := []struct {
		name   string
		digest string
		bytes  func() ([]byte, error)
	}{
		{"drift_events_ndjson", "b329d9e52e9ad02c19d9fdd7ca019151805a66d3071bebc0e5616ece3144935e",
			func() ([]byte, error) { return events.Bytes(), nil }},
		{"drift_report_json", "437b46d33aaeb9ed0ea67e6276a7d00a323be9c22c26f3c9011d6457b06fc981",
			func() ([]byte, error) { return indented(c.Report()) }},
		{"drift_decisions_ndjson", "f9676d33830d824d407b114a055ca74f4414896bf5a8c2b2485c31ee6a16670a",
			func() ([]byte, error) {
				var buf bytes.Buffer
				err := WriteDecisionNDJSON(&buf, "c1", c.Decisions())
				return buf.Bytes(), err
			}},
		{"straggler_report_json", "28a3ce4f9a0933ed2eadf7d6b0deff67252d44ec6541cbdd7fe53a4cc2989b38",
			func() ([]byte, error) { return drained(straggler) }},
		{"serve_report_json", "8478080ebb492851f7fd91b32486b4f64773d59e9ce0f32f0e431216fe582e8d",
			func() ([]byte, error) { return drained(smallServe()) }},
		{"serve_compare_json_workers1", "30d025922dacb78afc16055b0faa87ee860dc878cc59627192bfe455d780d487", serveCompare(1)},
		{"serve_compare_json_workers2", "30d025922dacb78afc16055b0faa87ee860dc878cc59627192bfe455d780d487", serveCompare(2)},
		{"serve_compare_text", "5b814880012475c13cbe29ae4655fde54d6e77a9d6e498ae1660ab6cdad4b272",
			func() ([]byte, error) {
				cmp, err := CompareServeRoutes(ctx, smallServe(), 2, 1)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				err = cmp.WriteText(&buf)
				return buf.Bytes(), err
			}},
		{"tune_report_json", "d325e093b1a378f44bb0b78d485182f95225df3f8ff62f8439e80e2b8f15a54f",
			func() ([]byte, error) {
				rep, err := runTune()
				if err != nil {
					return nil, err
				}
				return indented(rep)
			}},
		{"tune_report_text", "7fc810ed885eb310a0149719f2fded3f238da6fef81e2c457c30f9636099916a",
			func() ([]byte, error) {
				rep, err := runTune()
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				rep.WriteText(&buf)
				return buf.Bytes(), nil
			}},
	}
	for _, tc := range cases {
		raw, err := tc.bytes()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s drifted: sha256 %s, want %s (%d bytes)", tc.name, got, tc.digest, len(raw))
		}
	}
}
