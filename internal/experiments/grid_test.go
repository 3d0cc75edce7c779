package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
)

// quickCell is a one-node cell small enough that a grid of it stays fast
// under -race.
var quickCell = Cell{Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1, TokensPerGPU: 1024}

// TestRunCollectsInSubmissionOrder: a pooled grid files every job's
// result at that job's index, identical to running the job alone.
func TestRunCollectsInSubmissionOrder(t *testing.T) {
	var g grid
	g.add("tecp", quickCell, workload.ArXiv.Batch, baselines.TECP{}, 3)
	g.add("hybrid", quickCell, workload.GitHub.Batch, baselines.HybridDP{}, 3)
	res, err := g.run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(g.jobs) {
		t.Fatalf("%d results for %d jobs", len(res), len(g.jobs))
	}
	for i, j := range g.jobs {
		want, err := trainer.Run(j.cfg, j.method, j.cfg.Batch(j.sample))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Fatalf("%s: collected result differs from the job run alone:\n%+v\nvs\n%+v", j.label, res[i], want)
		}
	}
}

var errPlan = errors.New("planner refused the batch")

// failingMethod is TE CP that refuses to plan, so a grid can carry
// failing jobs next to healthy ones.
type failingMethod struct{ baselines.TECP }

func (failingMethod) Plan(*trainer.Env, []seq.Sequence) (trainer.Placement, error) {
	return nil, errPlan
}

// TestGridReportsLowestIndexFailure: with two failing jobs in one grid,
// the error names the lower-index job's label whatever the pool size.
func TestGridReportsLowestIndexFailure(t *testing.T) {
	var g grid
	g.add("ok", quickCell, workload.ArXiv.Batch, baselines.TECP{}, 1)
	g.add("bad-early", quickCell, workload.ArXiv.Batch, failingMethod{}, 1)
	g.add("ok-late", quickCell, workload.ArXiv.Batch, baselines.HybridDP{}, 1)
	g.add("bad-late", quickCell, workload.ArXiv.Batch, failingMethod{}, 1)
	for _, workers := range []int{1, 4} {
		_, err := g.means(Options{Workers: workers})
		if !errors.Is(err, errPlan) {
			t.Fatalf("workers=%d: err = %v, want the planner's error", workers, err)
		}
		if !strings.HasPrefix(err.Error(), "bad-early/s0: ") {
			t.Fatalf("workers=%d: err = %v, want the lower-index job's label", workers, err)
		}
	}
}
