// External test package: this test fans real trainer jobs, with
// zeppelin.Full() among the methods, through the public ForEach.
package runner_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// TestSerialParallelDeterminism: a (dataset × method × seed) grid of
// trainer jobs fanned through ForEach must produce bit-identical
// trainer.Results on one worker and on an oversubscribed pool.
func TestSerialParallelDeterminism(t *testing.T) {
	type job struct {
		cfg    trainer.Config
		method trainer.Method
		data   workload.Dataset
	}
	var jobs []job
	for _, d := range []workload.Dataset{workload.ArXiv, workload.GitHub} {
		for _, m := range []trainer.Method{baselines.TECP{}, baselines.HybridDP{}, zeppelin.Full()} {
			for s := 0; s < 3; s++ {
				jobs = append(jobs, job{
					cfg: trainer.Config{
						Model: model.LLaMA3B, Spec: cluster.ClusterA, Nodes: 1, TP: 1,
						TokensPerGPU: 1024, Seed: int64(1000 + 37*s),
					},
					method: m,
					data:   d,
				})
			}
		}
	}
	run := func(workers int) []*trainer.Result {
		out := make([]*trainer.Result, len(jobs))
		if err := runner.ForEach(context.Background(), workers, len(jobs), func(i int) error {
			j := jobs[i]
			r, err := trainer.Run(j.cfg, j.method, j.cfg.Batch(j.data.Batch))
			out[i] = r
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := run(1), run(2*runtime.GOMAXPROCS(0))
	for i, j := range jobs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("%s/%s/seed %d: serial and parallel results differ:\n%+v\nvs\n%+v",
				j.data.Name, j.method.Name(), j.cfg.Seed, serial[i], parallel[i])
		}
	}
}
