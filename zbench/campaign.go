package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/seq"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/workload/serve"
	zep "zeppelin/internal/zeppelin"
	"zeppelin/pkg/zeppelin"
)

// The campaign cell of both campaign workloads: 7B on two Cluster A
// nodes (16 ranks), the fig13 default.
const (
	cellModel = "7B"
	cellNodes = 2
)

// prolongIters is the length of one train-prolong pass: a fresh campaign
// streamed for this many iterations.
const prolongIters = 400

// serveSpecText is the fig16 serving scenario with its rate windows
// stretched 10×; route=affinity is the fig16 winner.
const serveSpecText = "clients=6,arrival=gamma:cv=2.0," +
	"rate=20@0-200s;60@200-400s;15@400-800s," +
	"slo=interactive:p99=2.5s:prio=2;batch:p99=15s:prio=1," +
	"dataset=stackexchange,sessions=8,prefix=0.6,form=priority,route=affinity"

// serveTickCap bounds a serve-burst pass; the timeline drains well
// before it, and a cut stream would show up as unserved requests.
const serveTickCap = 20000

// record is the part of a campaign event the output checks read.
type record struct {
	time                         float64
	tokens, deferred, seqs, hits int
	violations                   int
	replanned                    bool
	imbalance                    float64
}

// stream abstracts the two ways a pass drives a campaign: through the
// public pkg/zeppelin API (untraced) or through an internal
// campaign.Stream built from the same configuration with traced
// decorators.
type stream interface {
	next() (record, any, bool)
	err() error
	summary() campaign.Summary
}

type pkgStream struct{ c *zeppelin.Campaign }

func (s pkgStream) next() (record, any, bool) {
	ev, ok := s.c.Next()
	return record{ev.Time, ev.Tokens, ev.Deferred, ev.Seqs, ev.AffinityHits, ev.Violations, ev.Replanned, ev.Imbalance}, ev, ok
}
func (s pkgStream) err() error { return s.c.Err() }
func (s pkgStream) summary() campaign.Summary {
	r := s.c.Report().Summary
	return campaign.Summary{TokensPerSec: r.TokensPerSec, Requests: r.Requests, Violations: r.Violations, Unserved: r.Unserved}
}

type internalStream struct{ st *campaign.Stream }

func (s internalStream) next() (record, any, bool) {
	rec, ok := s.st.Next()
	return record{rec.Time, rec.Tokens, rec.Deferred, rec.Seqs, rec.AffinityHits, rec.Violations, rec.Replanned, rec.Imbalance}, rec, ok
}
func (s internalStream) err() error                { return s.st.Err() }
func (s internalStream) summary() campaign.Summary { return s.st.Report().Summary }

// campaignPass is one pass of a campaign workload: a fresh campaign on
// the pass seed, drained op by op. One op is one Next call plus the
// NDJSON encoding of its event, as zeppelind streams it.
type campaignPass struct {
	serve bool
	seed  int64
	iters int // train-prolong's horizon; serve passes run to serveTickCap
	t     *tracer

	// Benchmark-side oracle, generated before set-up: train-prolong's
	// arrived tokens per iteration, serve-burst's timeline size.
	arrived  []int
	requests int
	inputs   []uint64
	served   int

	method *tracedMethod

	s    stream
	buf  bytes.Buffer
	enc  *json.Encoder
	rec  record
	n    int
	outs passOutputs
}

func newCampaignPass(serveMode bool, seed int64, iters int, t *tracer) (*campaignPass, error) {
	p := &campaignPass{serve: serveMode, seed: seed, iters: iters, t: t}
	p.enc = json.NewEncoder(&p.buf)
	if serveMode {
		spec, err := serve.Parse(serveSpecText)
		if err != nil {
			return nil, err
		}
		start := threadCPU()
		tl, err := spec.Timeline(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		if t != nil {
			t.count("workload.timeline_ns", float64(threadCPU()-start))
		}
		p.requests = len(tl)
		h := fnv.New64a()
		var buf [32]byte
		for _, r := range tl {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Arrive))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.Tokens))
			binary.LittleEndian.PutUint64(buf[16:], uint64(r.Prefix))
			binary.LittleEndian.PutUint64(buf[24:], uint64(r.Session))
			h.Write(buf[:])
		}
		p.inputs = []uint64{h.Sum64()}
		return p, nil
	}
	tc, err := trainCell(seed)
	if err != nil {
		return nil, err
	}
	arr, err := prolongArrival(tc, iters)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for it := range iters {
		b := arr.Batch(it, tc.TotalTokens(), rng)
		p.arrived = append(p.arrived, seq.TotalLen(b))
		p.inputs = append(p.inputs, batchHash(b))
	}
	return p, nil
}

// trainCell is the trainer cell a default CampaignRequest resolves to.
func trainCell(seed int64) (trainer.Config, error) {
	mc, err := model.ByName(cellModel)
	if err != nil {
		return trainer.Config{}, err
	}
	tc := trainer.Config{Model: mc, Spec: cluster.ClusterA, Nodes: cellNodes, Seed: seed}
	return tc, tc.Validate()
}

func prolongArrival(tc trainer.Config, iters int) (campaign.Arrival, error) {
	return campaign.ArrivalByName("poisson", workload.ProLong64k, nil, iters, tc.TotalTokens())
}

// request is the public request the untraced pass streams.
func (p *campaignPass) request() (zeppelin.CampaignRequest, error) {
	req := zeppelin.CampaignRequest{Model: cellModel, Cluster: zeppelin.ClusterSpec{Nodes: cellNodes}, Method: "zeppelin", Seed: p.seed}
	if p.serve {
		spec, err := zeppelin.ParseServeSpec(serveSpecText)
		if err != nil {
			return req, err
		}
		req.Serve, req.Iters = spec, serveTickCap
		return req, nil
	}
	req.Workload = zeppelin.WorkloadSpec{Dataset: "prolong64k", Arrival: "poisson"}
	req.Iters = p.iters
	return req, nil
}

// config rebuilds the same campaign from internal packages, with the
// traced method and arrival decorators.
func (p *campaignPass) config() (campaign.Config, error) {
	tc, err := trainCell(p.seed)
	if err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{Trainer: tc}
	cfg.Method, p.method = traceMethod(zep.Full(), p.t)
	if p.serve {
		spec, err := serve.Parse(serveSpecText)
		if err != nil {
			return cfg, err
		}
		cfg.Serve, cfg.Iters = &campaign.ServeConfig{Spec: spec}, serveTickCap
		return cfg, nil
	}
	arr, err := prolongArrival(tc, p.iters)
	if err != nil {
		return cfg, err
	}
	cfg.Arrival, cfg.Policy, cfg.Iters = tracedArrival{arr, p.t}, campaign.Threshold{}, p.iters
	return cfg, nil
}

// setup is the program's set-up: NewCampaign+Start through the public
// API, or campaign.Start on the rebuilt configuration when traced. Serve
// set-up includes timeline generation.
func (p *campaignPass) setup() error {
	if p.t == nil {
		req, err := p.request()
		if err != nil {
			return err
		}
		c, err := zeppelin.NewCampaign(req)
		if err != nil {
			return err
		}
		if err := c.Start(context.Background()); err != nil {
			return err
		}
		p.s = pkgStream{c}
		return nil
	}
	cfg, err := p.config()
	if err != nil {
		return err
	}
	st, err := campaign.Start(context.Background(), cfg)
	if err != nil {
		return err
	}
	p.s = internalStream{st}
	return nil
}

func (p *campaignPass) op() (bool, error) {
	if p.t == nil {
		rec, ev, ok := p.s.next()
		if !ok {
			return false, p.s.err()
		}
		p.rec = rec
		return true, p.enc.Encode(ev)
	}
	t := p.t
	mark := len(t.spans)
	t.begin("op")
	t.begin("campaign.next")
	rec, ev, ok := p.s.next()
	if !ok {
		t.drop(mark)
		return false, p.s.err()
	}
	t.gap("campaign.post_sim")
	t.end()
	t.begin("pkg.encode")
	err := p.enc.Encode(ev)
	t.end()
	t.end()
	p.rec = rec
	return true, err
}

// check validates the op just run: a finite positive simulated iteration
// time and at least one sequence; for train-prolong, admitted plus
// deferred tokens equal the tokens that arrived.
func (p *campaignPass) check() error {
	r := p.rec
	i := p.n
	p.n++
	p.outs.add(p.buf.Bytes())
	if p.t != nil {
		p.method.countLast()
		p.t.count("pkg.encode_bytes", float64(p.buf.Len()))
		p.t.count("campaign.replans", b2f(r.replanned))
		p.t.count("campaign.affinity_hits", float64(r.hits))
		p.t.count("campaign.requests", float64(r.seqs))
	}
	p.buf.Reset()
	p.outs.imbalance += r.imbalance
	if math.IsNaN(r.time) || math.IsInf(r.time, 0) || r.time <= 0 {
		return fmt.Errorf("op %d: simulated iteration time %v", i, r.time)
	}
	if r.seqs < 1 {
		return fmt.Errorf("op %d: no sequences", i)
	}
	if p.serve {
		p.served += r.seqs
		return nil
	}
	if i >= len(p.arrived) {
		return fmt.Errorf("op %d: beyond the %d-iteration horizon", i, len(p.arrived))
	}
	if r.tokens+r.deferred != p.arrived[i] {
		return fmt.Errorf("op %d: admitted %d + deferred %d != arrived %d", i, r.tokens, r.deferred, p.arrived[i])
	}
	return nil
}

// end checks the pass as a whole and reports its simulated quality: for
// serve-burst every timeline request ended served or unserved.
func (p *campaignPass) end() (passOutputs, error) {
	sum := p.s.summary()
	o := p.outs
	o.inputs = p.inputs
	o.imbalance /= float64(max(p.n, 1))
	var err error
	if p.serve {
		if p.served+sum.Unserved != p.requests {
			err = fmt.Errorf("served %d + unserved %d != %d timeline requests", p.served, sum.Unserved, p.requests)
		}
		o.tokensPerSec = sum.TokensPerSec
		o.missRate = float64(sum.Violations+sum.Unserved) / float64(max(p.requests, 1))
		return o, err
	}
	if p.n != p.iters {
		err = fmt.Errorf("campaign ended after %d of %d iterations", p.n, p.iters)
	}
	o.tokensPerSec = sum.TokensPerSec
	return o, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// batchHash identifies a batch by its sequences (IDs and lengths).
func batchHash(b []seq.Sequence) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, s := range b {
		binary.LittleEndian.PutUint64(buf[:8], uint64(s.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(s.Len))
		h.Write(buf[:])
	}
	return h.Sum64()
}
