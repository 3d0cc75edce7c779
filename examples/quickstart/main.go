// Quickstart: plan one variable-length batch through the public
// pkg/zeppelin API and print the placement and the simulated iteration
// readout — the minimal end-to-end use of the v1 surface (the same
// request/response pair `curl -X POST /v1/plan` exchanges with the
// zeppelind daemon).
package main

import (
	"context"
	"log"
	"os"

	"zeppelin/pkg/zeppelin"
)

func main() {
	// Two Cluster A nodes (16×A800), LLaMA 7B, 4k tokens per GPU: the
	// smallest configuration in the paper's Fig. 8. Every zero field
	// selects exactly these defaults; they are spelled out for clarity.
	req := zeppelin.PlanRequest{
		Model:   "7B",
		Cluster: zeppelin.ClusterSpec{Preset: "A", Nodes: 2},
		Dataset: "arxiv",
		Method:  "zeppelin",
		Seed:    42,
	}
	resp, err := zeppelin.Plan(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}

	resp.WriteText(os.Stdout)
}
