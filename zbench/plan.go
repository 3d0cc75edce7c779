package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/partition"
	"zeppelin/internal/remap"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	zep "zeppelin/internal/zeppelin"
)

// plan-4k plans at 4096 ranks: 512 Cluster A nodes, 7B.
const (
	planNodes = 512
	planRanks = planNodes * 8
	// planBatches is the length of one plan-4k pass.
	planBatches = 24
)

// planPass is one pass of plan-4k: planBatches distinct FineWeb batches
// at ~90% fill (the fig15 shape), generated before set-up. One op is
// trainer.Config.NewEnv plus internal/zeppelin.Full().Plan.
type planPass struct {
	t       *tracer
	batches [][]seq.Sequence
	inputs  []uint64

	cfg    trainer.Config
	method trainer.Method

	i     int
	batch []seq.Sequence
	env   *trainer.Env
	pl    trainer.Placement
	outs  passOutputs
}

func newPlanPass(seed int64, t *tracer) (*planPass, error) {
	p := &planPass{t: t}
	rng := rand.New(rand.NewSource(seed))
	budget := planRanks * 4096 * 9 / 10
	for range planBatches {
		b := workload.FineWeb.Batch(budget, rng)
		p.batches = append(p.batches, b)
		p.inputs = append(p.inputs, batchHash(b))
	}
	return p, nil
}

// setup builds the cell as a plan service does before its first request:
// the trainer configuration, the method and one Env (engine, fabric, cost
// model). Each op then builds its own Env, as /v1/plan does per request.
func (p *planPass) setup() error {
	mc, err := model.ByName(cellModel)
	if err != nil {
		return err
	}
	p.cfg = trainer.Config{Model: mc, Spec: cluster.ClusterA, Nodes: planNodes}
	p.method = zep.Full()
	if err := p.cfg.Validate(); err != nil {
		return err
	}
	_, err = p.cfg.NewEnv()
	return err
}

func (p *planPass) op() (bool, error) {
	if p.i >= len(p.batches) {
		return false, nil
	}
	p.batch = p.batches[p.i]
	p.i++
	t := p.t
	if t == nil {
		env, err := p.cfg.NewEnv()
		if err != nil {
			return true, err
		}
		p.env = env
		p.pl, err = p.method.Plan(env, p.batch)
		return true, err
	}
	t.begin("op")
	defer t.end()
	t.begin("trainer.env")
	env, err := p.cfg.NewEnv()
	t.end()
	if err != nil {
		return true, err
	}
	p.env = env
	t.begin("zeppelin.plan")
	p.pl, err = p.method.Plan(env, p.batch)
	t.end()
	return true, err
}

// rankHeadroom bounds a rank's tokens as a multiple of the planner's
// budget L (env.CapacityTokens). The partitioner capacity-gates only
// local-zone placements; ring fragments, which Alg. 2 balances by
// quadratic cost, may take a rank modestly past L. 1.1 is the headroom
// the partition package's own TestCapacityRespected allows.
const rankHeadroom = 1.1

// check validates the plan just made: per-rank tokens sum to the batch,
// no rank holds more than rankHeadroom x L, and none more than the rank's
// resident-token ceiling (env.MemoryTokens). Traced passes then time the
// partition and remap solves on the same inputs as separate calls,
// whatever the check found.
func (p *planPass) check() error {
	pl, ok := p.pl.(interface {
		Plan() *seq.Plan
		RemapPlan() *remap.Plan
	})
	if !ok {
		return fmt.Errorf("op %d: placement exposes no plan", p.i-1)
	}
	plan := pl.Plan()
	var buf [8]byte
	sum := 0
	var err error
	for r, n := range plan.TokensPerRank() {
		sum += n
		if limit := rankHeadroom * float64(p.env.CapacityTokens); float64(n) > limit && err == nil {
			err = fmt.Errorf("op %d: rank %d holds %d tokens > %g x budget L %d", p.i-1, r, n, rankHeadroom, p.env.CapacityTokens)
		}
		if n > p.env.MemoryTokens && err == nil {
			err = fmt.Errorf("op %d: rank %d holds %d tokens > memory ceiling %d", p.i-1, r, n, p.env.MemoryTokens)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		p.outs.add(buf[:])
	}
	for _, tr := range pl.RemapPlan().Transfers {
		binary.LittleEndian.PutUint64(buf[:], uint64(tr.From)<<40|uint64(tr.To)<<20|uint64(tr.Tokens))
		p.outs.add(buf[:])
	}
	if want := seq.TotalLen(p.batch); sum != want && err == nil {
		err = fmt.Errorf("op %d: per-rank tokens sum to %d, batch has %d", p.i-1, sum, want)
	}
	p.outs.imbalance += partition.LoadImbalance(plan, nil)
	if p.t != nil {
		countPlacement(p.t, p.env, p.pl, len(p.batch))
		if serr := p.timeSolves(); serr != nil {
			return serr
		}
	}
	return err
}

// timeSolves times partition.New+Plan and remap.SolveTarget on the op's
// inputs, outside the op, as the layers' own cost.
func (p *planPass) timeSolves() error {
	env := p.env
	start := threadCPU()
	part, err := partition.New(partition.Config{Cluster: env.C, CapacityTokens: env.CapacityTokens})
	if err != nil {
		return err
	}
	res, err := part.Plan(p.batch)
	if err != nil {
		return err
	}
	p.t.count("partition.plan_ns", float64(threadCPU()-start))
	bpt := env.CM.ActBytes(1)
	start = threadCPU()
	if _, err := remap.SolveTarget(res.Plan.TokensPerRank(), nil, env.C, bpt/env.C.IntraBandwidth, bpt/env.C.NICBandwidth); err != nil {
		return err
	}
	p.t.count("remap.solve_ns", float64(threadCPU()-start))
	return nil
}

func (p *planPass) end() (passOutputs, error) {
	o := p.outs
	o.inputs = p.inputs
	o.imbalance /= float64(max(p.i, 1))
	return o, nil
}
