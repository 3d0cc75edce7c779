// Package partition implements Zeppelin's hierarchical sequence
// partitioner (§3.1): Algorithm 1 assigns sequences to node buckets,
// splitting inter-node-zone sequences across nodes to balance
// communication; Algorithm 2 then partitions within each node, splitting
// intra-node-zone sequences to balance quadratic attention computation and
// placing local-zone sequences on the least-loaded devices.
//
// Capacity contract: both algorithms lower their zone threshold and
// retry only when a whole-sequence placement would exceed capacity — a
// z01 sequence onto a node (P·L) in Alg. 1, a z0 sequence onto a device
// (L) in Alg. 2. Ring fragments, the inter-node shares they impose, and
// an intra-zone sequence that collapses to a single fragment are placed
// unchecked, so a rank can end above L. No fixed multiple of L bounds it:
// one node planning {3L, L} puts 1.375 × L on a rank, and
// TestCapacityRespected's 1.1 × L holds for its batch only. What the
// retry loop does guarantee is termination with a token-conserving plan
// whenever the batch fits in aggregate memory, and that a rank holding a
// local-zone sequence ends at or below L (FuzzPlan checks both).
//
// The solve is one serial pass: Alg. 1 starts at threshold P·L and, on
// a capacity failure, lowers it to the longest sequence still below it;
// the per-node Alg. 2 solves then run in node order. Each Alg. 1 pass
// costs O(S log N) for S sequences on N nodes, through a min-heap of
// node loads; Alg. 2 scans a node's P devices per placement. Concurrency
// lives a level up — independent planning sessions each own a
// Partitioner.
//
// A Partitioner owns reusable scratch buffers: repeated Plan calls (the
// per-iteration hot path of streaming campaigns) and the threshold-retry
// loops inside one call allocate almost nothing beyond the plan they
// return.
package partition

import (
	"fmt"
	"math"

	"zeppelin/internal/cluster"
	"zeppelin/internal/seq"
)

// Config parameterizes the partitioner.
type Config struct {
	Cluster *cluster.Cluster
	// CapacityTokens is L, the per-device token capacity.
	CapacityTokens int
	// Speeds, when set, is the per-rank relative speed vector (1 =
	// nominal, 0.4 = a 2.5×-slow straggler) of the degraded effective-speed
	// cluster view. The partitioner then balances *time* instead of
	// tokens: greedy placement weighs each rank's load by 1/speed, and
	// ring fragments claim the least-time-loaded devices instead of the
	// round-robin cursor, steering work away from slow ranks. Capacity
	// checks stay in raw tokens (memory does not speed up). Nil reproduces
	// the paper's homogeneous-cluster behavior exactly.
	Speeds []float64
}

// validate checks a configuration.
func (cfg *Config) validate() error {
	if cfg.Cluster == nil {
		return fmt.Errorf("partition: nil cluster")
	}
	if cfg.CapacityTokens <= 0 {
		return fmt.Errorf("partition: capacity must be positive, got %d", cfg.CapacityTokens)
	}
	if cfg.Speeds != nil {
		if len(cfg.Speeds) != cfg.Cluster.World() {
			return fmt.Errorf("partition: %d speeds for world of %d", len(cfg.Speeds), cfg.Cluster.World())
		}
		for r, s := range cfg.Speeds {
			if s <= 0 {
				return fmt.Errorf("partition: rank %d has non-positive speed %v", r, s)
			}
		}
	}
	return nil
}

// Partitioner runs the two-level hierarchical strategy. The zero value is
// unusable; construct with New. Not safe for concurrent use (the scratch
// buffers are shared across calls).
type Partitioner struct {
	cfg Config

	// Scratch reused across Plan calls. None of these are retained by
	// returned plans.
	sorted     []seq.Sequence
	nodeSpeed  []float64
	interShare [][]int
	share      []int // inter-ring emission scratch

	inter interScratch // Alg. 1 scratch
	intra intraScratch // Alg. 2 scratch
}

// New validates the configuration.
func New(cfg Config) (*Partitioner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Partitioner{cfg: cfg}, nil
}

// Result is a placement plan plus the thresholds the algorithms converged
// to, for diagnostics and the Fig. 5 zone analysis.
type Result struct {
	Plan *seq.Plan
	// S1 is the final inter-node zone threshold of Alg. 1 (sequences of
	// length >= S1 are split across nodes).
	S1 int
	// S0 is the final intra-node threshold per node from Alg. 2.
	S0 []int
}

// interPlacement records a z2 sequence chunked across a set of nodes.
type interPlacement struct {
	s     seq.Sequence
	nodes []int
}

// pickScratch holds the least-loaded selection buffers of Alg. 2's
// degraded-view ring placement.
type pickScratch struct {
	pick []int
	eff  []float64
}

// interScratch is the Alg. 1 working context: evalInter is a pure
// function of (sorted, threshold) writing only here.
type interScratch struct {
	heap     nodeHeap
	nodeLoad []int
	nodeSeqs [][]seq.Sequence
	inters   []interPlacement
	z01, z2  []seq.Sequence
	share    []int
}

// intraScratch is the Alg. 2 working context: retry-loop state that does
// not outlive one node's solve.
type intraScratch struct {
	pickScratch
	devLoad  []int
	devSpeed []float64
	z0, z1   []seq.Sequence
	share    []int
	local    [][]seq.Sequence
	rings    []seq.Ring
}

// Plan partitions a batch across the cluster. It errors if the batch
// cannot fit (total tokens exceed aggregate capacity) or if any single
// sequence exceeds the cluster-wide token capacity. The returned plan
// shares nothing with the partitioner's scratch and stays valid across
// later Plan calls.
func (p *Partitioner) Plan(batch []seq.Sequence) (*Result, error) {
	c := p.cfg.Cluster
	N, P, L := c.Nodes, c.GPUsPerNode, p.cfg.CapacityTokens
	if total := seq.TotalLen(batch); total > N*P*L {
		return nil, fmt.Errorf("partition: batch of %d tokens exceeds capacity %d", total, N*P*L)
	}
	for _, s := range batch {
		if s.Len <= 0 {
			return nil, fmt.Errorf("partition: sequence %d has non-positive length", s.ID)
		}
	}
	p.sorted = append(p.sorted[:0], batch...)
	seq.SortByLenDesc(p.sorted)

	// Under a degraded cluster view, a node's effective speed is the sum
	// of its ranks' speeds — Alg. 1 then assigns fewer tokens to nodes
	// hosting stragglers.
	nodeSpeed := p.nodeSpeeds(N)

	s1, err := p.interNode(p.sorted, N, P, L, nodeSpeed)
	if err != nil {
		return nil, err
	}
	nodeSeqs, inters := p.inter.nodeSeqs, p.inter.inters

	plan := seq.NewPlan(c.World())
	res := &Result{Plan: plan, S1: s1, S0: make([]int, N)}

	// Inter-node rings: a sequence chunked over k nodes rings over all
	// k·P ranks (Alg. 2 lines 4–6 split each node's chunk across all P
	// devices). A chunk count of 1 degenerates to an intra-node ring.
	interShare := p.interShareBuf(N, P)
	for _, ip := range inters {
		ranks := make([]int, 0, len(ip.nodes)*P)
		for _, n := range ip.nodes {
			ranks = append(ranks, c.RanksOfNode(n)...)
		}
		zone := seq.ZoneInter
		if len(ip.nodes) == 1 {
			zone = seq.ZoneIntra
		}
		ring := seq.Ring{Seq: ip.s, Zone: zone, Ranks: ranks, Weights: p.ringWeights(ranks)}
		plan.Rings = append(plan.Rings, ring)
		p.share = ring.TokensPerRankInto(p.share)
		for i, r := range ranks {
			interShare[c.NodeOf(r)][c.LocalRank(r)] += p.share[i]
		}
	}

	for n := 0; n < N; n++ {
		s0, err := p.intraNode(plan, n, nodeSeqs[n], interShare[n])
		if err != nil {
			return nil, fmt.Errorf("partition: node %d: %w", n, err)
		}
		res.S0[n] = s0
	}
	return res, nil
}

// nodeSpeeds computes the per-node effective speed scratch (nil when the
// cluster view is healthy).
func (p *Partitioner) nodeSpeeds(n int) []float64 {
	if p.cfg.Speeds == nil {
		return nil
	}
	c := p.cfg.Cluster
	p.nodeSpeed = growF(p.nodeSpeed, n)
	for nd := 0; nd < n; nd++ {
		var sum float64
		lo := nd * c.GPUsPerNode
		for i := 0; i < c.GPUsPerNode; i++ {
			sum += p.cfg.Speeds[lo+i]
		}
		p.nodeSpeed[nd] = sum
	}
	return p.nodeSpeed
}

// interShareBuf returns the zeroed per-node × per-device inter-ring load
// scratch.
func (p *Partitioner) interShareBuf(n, dev int) [][]int {
	if cap(p.interShare) < n {
		p.interShare = make([][]int, n)
	}
	p.interShare = p.interShare[:n]
	for i := range p.interShare {
		p.interShare[i] = growI(p.interShare[i], dev)
		for j := range p.interShare[i] {
			p.interShare[i][j] = 0
		}
	}
	return p.interShare
}

// interNode is Algorithm 1's threshold loop: it starts at s1 = P·L and,
// whenever a z01 placement would exceed node capacity, lowers s1 to the
// longest z01 sequence — the longest sequence below the failed threshold
// — and retries. The assignment is left in p.inter. The loop terminates:
// each retry strictly lowers s1, and once every sequence is inter-zone
// the z01 pass has nothing to capacity-check.
func (p *Partitioner) interNode(sorted []seq.Sequence, n, pp, l int, nodeSpeed []float64) (int, error) {
	s1 := pp * l
	for iter := 0; iter <= len(sorted); iter++ {
		if evalInter(&p.inter, sorted, n, pp, l, s1, nodeSpeed) {
			return s1, nil
		}
		s1 = p.inter.z01[0].Len
	}
	return 0, fmt.Errorf("inter-node partitioning did not converge")
}

// evalInter is one Algorithm 1 evaluation at a fixed threshold s1: it
// splits the zones, chunks z2 sequences across least-loaded nodes, and
// greedily places z01 sequences, reporting false as soon as a placement
// would exceed node capacity. It reads nothing but its arguments and
// writes nothing but scr. sorted must be in descending length order; on
// success scr.nodeSeqs and scr.inters hold the assignment, valid until
// the scratch is reused.
func evalInter(scr *interScratch, sorted []seq.Sequence, n, pp, l, s1 int, nodeSpeed []float64) bool {
	scr.nodeLoad = growI(scr.nodeLoad, n)
	nodeLoad := scr.nodeLoad
	for i := range nodeLoad {
		nodeLoad[i] = 0
	}
	h := &scr.heap
	h.reset(n)
	if cap(scr.nodeSeqs) < n {
		scr.nodeSeqs = make([][]seq.Sequence, n)
	}
	scr.nodeSeqs = scr.nodeSeqs[:n]
	nodeSeqs := scr.nodeSeqs
	for i := range nodeSeqs {
		nodeSeqs[i] = nodeSeqs[i][:0]
	}
	inters := scr.inters[:0]

	z01, z2 := scr.z01[:0], scr.z2[:0]
	for _, s := range sorted {
		if s.Len >= s1 {
			z2 = append(z2, s)
		} else {
			z01 = append(z01, s)
		}
	}
	scr.z01, scr.z2 = z01, z2
	if len(z2) > 0 {
		sAvg := float64(seq.TotalLen(z2)) / float64(n)
		for _, s := range z2 {
			k := int(math.Ceil(float64(s.Len) / sAvg))
			if k < 1 {
				k = 1
			}
			if k > n {
				k = n
			}
			// The k least-loaded nodes, in increasing (load, index) order;
			// the placement owns its node list.
			nodes := make([]int, k)
			for i := range nodes {
				nodes[i] = h.pop()
			}
			share := seq.SplitEvenInto(scr.share, s.Len, k)
			if nodeSpeed != nil {
				// The emitted ring carries speed-proportional rank
				// weights, so each node's real token share is its speed
				// share — account (and capacity-check) the same way.
				w := make([]float64, k)
				for i, nd := range nodes {
					w[i] = nodeSpeed[nd]
				}
				share = seq.SplitWeightedInto(scr.share, s.Len, w)
			}
			scr.share = share
			for i, nd := range nodes {
				nodeLoad[nd] += share[i]
				h.push(nd, effLoad(nodeLoad, nodeSpeed, nd))
			}
			inters = append(inters, interPlacement{s: s, nodes: nodes})
		}
	}
	scr.inters = inters
	for _, s := range z01 {
		idx := h.min()
		if s.Len+nodeLoad[idx] > pp*l {
			// z01 is sorted descending, so its first element is the
			// longest below s1: the caller's next threshold.
			return false
		}
		nodeSeqs[idx] = append(nodeSeqs[idx], s)
		nodeLoad[idx] += s.Len
		h.fixMin(effLoad(nodeLoad, nodeSpeed, idx))
	}
	return true
}

// nodeHeap is a binary min-heap of node indices ordered by (effective
// load, index) — the order argminLoad and leastLoaded select by, ties
// included — so Alg. 1 finds its least-loaded node in O(log N) instead
// of rescanning every node per sequence.
type nodeHeap struct {
	nodes []int     // heap-ordered node indices
	eff   []float64 // effective load per node index
}

// reset empties the loads of n nodes. All-equal keys make the identity
// order a valid heap.
func (h *nodeHeap) reset(n int) {
	h.nodes = growI(h.nodes, n)
	h.eff = growF(h.eff, n)
	for i := range h.nodes {
		h.nodes[i] = i
		h.eff[i] = 0
	}
}

func (h *nodeHeap) less(a, b int) bool {
	ea, eb := h.eff[a], h.eff[b]
	return ea < eb || (ea == eb && a < b)
}

// min returns the least-loaded node without removing it.
func (h *nodeHeap) min() int { return h.nodes[0] }

// fixMin sets the root node's effective load and restores heap order.
func (h *nodeHeap) fixMin(eff float64) {
	h.eff[h.nodes[0]] = eff
	h.down(0)
}

// pop removes and returns the least-loaded node.
func (h *nodeHeap) pop() int {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	h.down(0)
	return top
}

// push re-inserts a popped node at effective load eff.
func (h *nodeHeap) push(node int, eff float64) {
	h.eff[node] = eff
	h.nodes = append(h.nodes, node)
	for i := len(h.nodes) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(h.nodes[i], h.nodes[parent]) {
			break
		}
		h.nodes[i], h.nodes[parent] = h.nodes[parent], h.nodes[i]
		i = parent
	}
}

func (h *nodeHeap) down(i int) {
	n := len(h.nodes)
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(h.nodes[l], h.nodes[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(h.nodes[r], h.nodes[least]) {
			least = r
		}
		if least == i {
			return
		}
		h.nodes[i], h.nodes[least] = h.nodes[least], h.nodes[i]
		i = least
	}
}

// effLoad is node i's effective load with exactly argminLoad's
// arithmetic: the raw token load (exact as a float64) on a healthy view,
// load/speed on a degraded one.
func effLoad(load []int, speed []float64, i int) float64 {
	if speed == nil {
		return float64(load[i])
	}
	return float64(load[i]) / speed[i]
}

// intraNode is Algorithm 2 for one node: it splits intra-node-zone
// sequences into quadratic-cost-balanced fragments (forming intra-node
// rings) and packs local-zone sequences onto the least-loaded devices,
// iteratively lowering the zone threshold on capacity failure. interShare
// carries the token loads already imposed by inter-node rings. The
// node's placement is appended to plan; the converged threshold s0 is
// returned.
func (p *Partitioner) intraNode(plan *seq.Plan, node int, assigned []seq.Sequence, interShare []int) (int, error) {
	scr := &p.intra
	c := p.cfg.Cluster
	P, L := c.GPUsPerNode, p.cfg.CapacityTokens
	ranks := c.RanksOfNode(node)
	var devSpeed []float64
	if p.cfg.Speeds != nil {
		scr.devSpeed = growF(scr.devSpeed, P)
		devSpeed = scr.devSpeed
		for d, r := range ranks {
			devSpeed[d] = p.cfg.Speeds[r]
		}
	}
	scr.devLoad = growI(scr.devLoad, P)
	if cap(scr.local) < P {
		scr.local = make([][]seq.Sequence, P)
	}
	scr.local = scr.local[:P]
	s0 := L
	for iter := 0; ; iter++ {
		if iter > len(assigned)+2 {
			return 0, fmt.Errorf("intra-node partitioning did not converge")
		}
		devLoad := scr.devLoad
		copy(devLoad, interShare)
		local := scr.local
		for i := range local {
			local[i] = local[i][:0]
		}
		rings := scr.rings[:0]

		z0, z1 := scr.z0[:0], scr.z1[:0]
		for _, s := range assigned { // assigned preserves descending order
			if s.Len >= s0 {
				z1 = append(z1, s)
			} else {
				z0 = append(z0, s)
			}
		}
		scr.z0, scr.z1 = z0, z1
		if len(z1) > 0 {
			var cAvg float64
			for _, s := range z1 {
				cAvg += float64(s.Len) * float64(s.Len)
			}
			cAvg /= float64(P)
			rr := 0 // round-robin cursor continues across sequences
			for _, s := range z1 {
				k := int(math.Ceil(float64(s.Len) * float64(s.Len) / cAvg))
				if k < 1 {
					k = 1
				}
				if k > P {
					k = P
				}
				if k == 1 {
					// A single fragment needs no ring; place like a local
					// sequence on the round-robin device (least-time-loaded
					// under a degraded view).
					d := rr % P
					if devSpeed != nil {
						d = argminLoad(devLoad, devSpeed)
					}
					local[d] = append(local[d], s)
					devLoad[d] += s.Len
					rr++
					continue
				}
				devs := make([]int, k)
				if devSpeed == nil {
					share := seq.SplitEvenInto(scr.share, s.Len, k)
					scr.share = share
					for i := 0; i < k; i++ {
						d := (rr + i) % P
						devs[i] = ranks[d]
						devLoad[d] += share[i]
					}
					rr += k
					rings = append(rings, seq.Ring{Seq: s, Zone: seq.ZoneIntra, Ranks: devs})
					continue
				}
				// Degraded view: a ring's lock-stepped rounds run at its
				// slowest member's pace, so fragments claim the k
				// least-time-loaded devices and weight their query-chunk
				// shares by speed — stragglers hold smaller chunks and the
				// rounds stay time-balanced.
				chosen := scr.leastLoaded(devLoad, k, devSpeed)
				for i, d := range chosen {
					devs[i] = ranks[d]
				}
				ring := seq.Ring{Seq: s, Zone: seq.ZoneIntra, Ranks: devs, Weights: p.ringWeights(devs)}
				scr.share = ring.TokensPerRankInto(scr.share)
				for i, d := range chosen {
					devLoad[d] += scr.share[i]
				}
				rings = append(rings, ring)
			}
		}
		scr.rings = rings
		retry := false
		for _, s := range z0 {
			idx := argminLoad(devLoad, devSpeed)
			if s.Len+devLoad[idx] > L {
				s0 = z0[0].Len
				retry = true
				break
			}
			local[idx] = append(local[idx], s)
			devLoad[idx] += s.Len
		}
		if !retry {
			for d := 0; d < P; d++ {
				plan.Local[ranks[d]] = append(plan.Local[ranks[d]], local[d]...)
			}
			plan.Rings = append(plan.Rings, rings...)
			return s0, nil
		}
	}
}

// ringWeights returns speed-proportional ring weights for a rank set
// (nil on a healthy cluster, preserving the even 2G-chunk split).
func (p *Partitioner) ringWeights(ranks []int) []float64 {
	if p.cfg.Speeds == nil {
		return nil
	}
	out := make([]float64, len(ranks))
	for i, r := range ranks {
		out[i] = p.cfg.Speeds[r]
	}
	return out
}

// leastLoaded returns the indices of the k smallest loads, ties broken by
// index, in increasing-load order. A non-nil speed vector compares
// effective time loads (load/speed) instead of raw token loads. The
// result is selection scratch, valid until the next call on the same
// pickScratch.
func (ps *pickScratch) leastLoaded(load []int, k int, speed []float64) []int {
	n := len(load)
	ps.pick = growI(ps.pick, n)
	idx := ps.pick
	// Precompute effective loads once instead of dividing inside the
	// O(k·n) comparison loop. The explicit index tie-break matters:
	// selection swaps perturb idx order, so strict-smaller alone would
	// resolve equal loads by position, not by index.
	ps.eff = growF(ps.eff, n)
	eff := ps.eff
	for i := range idx {
		idx[i] = i
		eff[i] = float64(load[i])
		if speed != nil {
			eff[i] /= speed[i]
		}
	}
	// Selection sort of the first k: the loads are one node's P devices.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			ej, eb := eff[idx[j]], eff[idx[best]]
			if ej < eb || (ej == eb && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// argminLoad is the greedy least-loaded choice: raw token loads when
// speed is nil, effective time loads (load/speed) otherwise. Ties break
// by index in both modes.
func argminLoad(v []int, speed []float64) int {
	best := 0
	if speed == nil {
		for i, x := range v {
			if x < v[best] {
				best = i
			}
		}
		return best
	}
	for i := range v {
		if float64(v[i])/speed[i] < float64(v[best])/speed[best] {
			best = i
		}
	}
	return best
}

// growI returns s resized to n, reusing capacity (contents unspecified).
func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// growF is growI for float64 scratch.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// LoadImbalance is the plan cost metric: the maximum over ranks of
// effective token load (tokens/speed; raw tokens on a healthy view)
// divided by the mean.
func LoadImbalance(plan *seq.Plan, speeds []float64) float64 {
	var sum, max float64
	for i, t := range plan.TokensPerRank() {
		eff := float64(t)
		if speeds != nil {
			eff /= speeds[i]
		}
		sum += eff
		if eff > max {
			max = eff
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(plan.World))
}

// Counters is empty; planning keeps no counters.
//
// Deprecated: the zbench module is the only user of this name.
type Counters struct{}

// IncrementalConfig is empty; planning has no cache to configure.
//
// Deprecated: the zbench module is the only user of this name.
type IncrementalConfig struct{}
