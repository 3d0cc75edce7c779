// Package faults is the deterministic fault-and-elasticity layer for
// streaming campaigns: it turns a declarative Schedule of straggler
// windows, NIC degradations, and node outages into per-iteration
// effective-speed cluster views (cluster.Health) plus elastic resize
// events. internal/campaign consumes one View per iteration, so any
// campaign — any method, arrival process, or replanning policy — can run
// under a fault schedule and the comparison stays apples-to-apples: the
// same faults hit every method at the same iterations.
//
// The paper's evaluation (§5) assumes a healthy fixed-size cluster;
// production data-parallel training does not. Three fault families are
// modeled:
//
//   - Straggler: a rank's compute runs Factor× slower for a window
//     (thermal throttling, noisy neighbors, ECC retries). Speed-aware
//     methods re-plan around it; even splits stall at the slow rank.
//   - NICFault: a NIC loses bandwidth for a window (link renegotiation,
//     congestion). The fabric's send and receive engines derate.
//   - NodeOutage: a node leaves for a window. Planned outages (elastic
//     shrink, graceful drain) migrate sequence state through the Eq. 2
//     remapping solver and pay only the migration's bottleneck-sender
//     time; fail-stop outages lose the state and pay a checkpoint-restart
//     charge instead. Either way the node rejoins at the window's end
//     with a planned migration seeding it back.
//
// Everything is a pure function of (Schedule, iteration), so faulted
// campaigns stay bit-identical across worker counts and reruns.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"zeppelin/internal/cluster"
	"zeppelin/internal/remap"
)

// Straggler slows one data-parallel rank's compute by Factor (>= 1)
// during iterations [From, To).
type Straggler struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
	From   int     `json:"from"`
	To     int     `json:"to"`
}

// NICFault derates one global NIC's bandwidth to Factor (in (0, 1]) of
// nominal during iterations [From, To).
type NICFault struct {
	NIC    int     `json:"nic"`
	Factor float64 `json:"factor"`
	From   int     `json:"from"`
	To     int     `json:"to"`
}

// NodeOutage removes one node during iterations [From, To). FailStop
// outages are unplanned — sequence state is lost and a checkpoint
// restart is charged; planned outages drain the node through the
// remapping layer first.
type NodeOutage struct {
	Node     int  `json:"node"`
	From     int  `json:"from"`
	To       int  `json:"to"`
	FailStop bool `json:"fail_stop,omitempty"`
}

// DefaultRestartCost is the checkpoint-restart charge of a fail-stop
// outage in seconds: reloading the last checkpoint and replaying lost
// work. Large against iteration times (seconds), small against a
// campaign — exactly the regime that makes planned drains worth it.
const DefaultRestartCost = 30.0

// Schedule is a deterministic fault scenario.
type Schedule struct {
	Name       string       `json:"name"`
	Stragglers []Straggler  `json:"stragglers,omitempty"`
	NICFaults  []NICFault   `json:"nic_faults,omitempty"`
	Outages    []NodeOutage `json:"outages,omitempty"`
	// RestartCost is the seconds charged when a fail-stop outage begins.
	// Zero selects DefaultRestartCost; negative means free.
	RestartCost float64 `json:"restart_cost,omitempty"`
}

// Restart returns the effective checkpoint-restart charge.
func (s *Schedule) Restart() float64 {
	switch {
	case s == nil || s.RestartCost < 0:
		return 0
	case s.RestartCost == 0:
		return DefaultRestartCost
	}
	return s.RestartCost
}

// Validate checks the schedule against a deployment: factors in range,
// windows well-formed, outage nodes in range, and — because the
// simulator keeps rank ids dense — the set of absent nodes must always
// be a suffix of the node list (elastic events remove and restore
// trailing nodes; rank renumbering is the migration's job in a real
// system). At least one node must stay up at every iteration.
func (s *Schedule) Validate(nodes, ranksPerNode, nicsPerNode int) error {
	if s == nil {
		return nil
	}
	world := nodes * ranksPerNode
	for i, st := range s.Stragglers {
		if st.Rank < 0 || st.Rank >= world {
			return fmt.Errorf("faults: straggler %d rank %d outside world of %d", i, st.Rank, world)
		}
		if st.Factor < 1 {
			return fmt.Errorf("faults: straggler %d factor %v < 1", i, st.Factor)
		}
		if st.From < 0 || st.To <= st.From {
			return fmt.Errorf("faults: straggler %d window [%d, %d) is empty", i, st.From, st.To)
		}
	}
	for i, nf := range s.NICFaults {
		if nf.NIC < 0 || nf.NIC >= nodes*nicsPerNode {
			return fmt.Errorf("faults: NIC fault %d nic %d outside %d NICs", i, nf.NIC, nodes*nicsPerNode)
		}
		if nf.Factor <= 0 || nf.Factor > 1 {
			return fmt.Errorf("faults: NIC fault %d factor %v outside (0, 1]", i, nf.Factor)
		}
		if nf.From < 0 || nf.To <= nf.From {
			return fmt.Errorf("faults: NIC fault %d window [%d, %d) is empty", i, nf.From, nf.To)
		}
	}
	for i, o := range s.Outages {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("faults: outage %d node %d outside %d nodes", i, o.Node, nodes)
		}
		if o.From < 0 || o.To <= o.From {
			return fmt.Errorf("faults: outage %d window [%d, %d) is empty", i, o.From, o.To)
		}
	}
	// Check the suffix property and liveness at every window boundary
	// (the absent set only changes there).
	var bounds []int
	for _, o := range s.Outages {
		bounds = append(bounds, o.From, o.To)
	}
	sort.Ints(bounds)
	for _, b := range bounds {
		absent := make(map[int]bool)
		for _, o := range s.Outages {
			if o.From <= b && b < o.To {
				absent[o.Node] = true
			}
		}
		if len(absent) >= nodes {
			return fmt.Errorf("faults: all %d nodes absent at iteration %d", nodes, b)
		}
		for n := nodes - len(absent); n < nodes; n++ {
			if !absent[n] {
				return fmt.Errorf("faults: absent nodes at iteration %d are not a trailing suffix", b)
			}
		}
	}
	return nil
}

// View is the cluster state one campaign iteration executes under.
type View struct {
	Iter int
	// Nodes is the active node count (leading nodes; elastic events
	// remove trailing nodes).
	Nodes int
	// PrevNodes is the active node count of the previous iteration.
	PrevNodes int
	// Resized reports an elastic transition at this iteration.
	Resized bool
	// FailStop reports that a fail-stop outage begins at this iteration
	// (the transition loses state and pays the restart charge instead of
	// a planned migration).
	FailStop bool
	// Health is the degraded effective-speed view sized to the active
	// cluster, nil when nominal.
	Health *cluster.Health
	// Events are human-readable markers for fault transitions occurring
	// at this iteration ("fail:node1", "straggler:rank3 x2.5", ...).
	Events []string
}

// activeNodes counts nodes up at an iteration; negative iterations are
// before the campaign and see the full cluster.
func (s *Schedule) activeNodes(iter, baseNodes int) int {
	if s == nil || iter < 0 {
		return baseNodes
	}
	n := baseNodes
	for _, o := range s.Outages {
		if o.From <= iter && iter < o.To {
			n--
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// At resolves the schedule at one iteration for a deployment of
// baseNodes nodes with ranksPerNode data-parallel ranks and nicsPerNode
// effective NICs per node. Stragglers and NIC faults addressing absent
// ranks/NICs are dropped for the duration of the outage.
func (s *Schedule) At(iter, baseNodes, ranksPerNode, nicsPerNode int) View {
	v := View{
		Iter:      iter,
		Nodes:     s.activeNodes(iter, baseNodes),
		PrevNodes: s.activeNodes(iter-1, baseNodes),
	}
	v.Resized = v.Nodes != v.PrevNodes
	if s == nil {
		return v
	}
	world := v.Nodes * ranksPerNode
	nics := v.Nodes * nicsPerNode

	var slow []float64
	for _, st := range s.Stragglers {
		if st.From <= iter && iter < st.To && st.Rank < world && st.Factor > 1 {
			if slow == nil {
				slow = ones(world)
			}
			if st.Factor > slow[st.Rank] {
				slow[st.Rank] = st.Factor
			}
		}
		if st.From == iter {
			v.Events = append(v.Events, fmt.Sprintf("straggler:rank%d x%.3g", st.Rank, st.Factor))
		}
		if st.To == iter {
			v.Events = append(v.Events, fmt.Sprintf("recovered:rank%d", st.Rank))
		}
	}
	var derate []float64
	for _, nf := range s.NICFaults {
		if nf.From <= iter && iter < nf.To && nf.NIC < nics && nf.Factor < 1 {
			if derate == nil {
				derate = ones(nics)
			}
			if nf.Factor < derate[nf.NIC] {
				derate[nf.NIC] = nf.Factor
			}
		}
		if nf.From == iter {
			v.Events = append(v.Events, fmt.Sprintf("nic-degrade:nic%d x%.3g", nf.NIC, nf.Factor))
		}
		if nf.To == iter {
			v.Events = append(v.Events, fmt.Sprintf("nic-recovered:nic%d", nf.NIC))
		}
	}
	if slow != nil || derate != nil {
		v.Health = &cluster.Health{Slow: slow, NICDerate: derate}
	}
	for _, o := range s.Outages {
		if o.From == iter {
			if o.FailStop {
				v.FailStop = true
				v.Events = append(v.Events, fmt.Sprintf("fail:node%d", o.Node))
			} else {
				v.Events = append(v.Events, fmt.Sprintf("shrink:node%d", o.Node))
			}
		}
		if o.To == iter {
			kind := "grow"
			if o.FailStop {
				kind = "rejoin"
			}
			v.Events = append(v.Events, fmt.Sprintf("%s:node%d", kind, o.Node))
		}
	}
	return v
}

// FirstTransition returns the earliest iteration at which any fault
// begins (-1 for a nil or empty schedule) — the end of the healthy
// baseline window recovery measurements compare against.
func (s *Schedule) FirstTransition() int {
	first := -1
	upd := func(it int) {
		if first < 0 || it < first {
			first = it
		}
	}
	if s == nil {
		return first
	}
	for _, st := range s.Stragglers {
		upd(st.From)
	}
	for _, nf := range s.NICFaults {
		upd(nf.From)
	}
	for _, o := range s.Outages {
		upd(o.From)
	}
	return first
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Migration plans the Eq. 2 sequence-state migration of an elastic
// transition: the resident state (tokens × stateBytesPerToken bytes,
// evenly laid out over the old active ranks, as the remapping layer
// maintains) moves to the even layout over the new active ranks. It
// returns the remap plan and its bottleneck-sender time in seconds —
// the campaign charges that time to the transition iteration. spec must
// be the effective (TP-folded) node spec.
func Migration(spec cluster.Spec, oldNodes, newNodes, tokens int, stateBytesPerToken float64) (*remap.Plan, float64, error) {
	if oldNodes == newNodes || tokens <= 0 || stateBytesPerToken <= 0 {
		return nil, 0, nil
	}
	span := oldNodes
	if newNodes > span {
		span = newNodes
	}
	c, err := cluster.New(spec, span)
	if err != nil {
		return nil, 0, err
	}
	have := evenLayout(tokens, oldNodes*spec.GPUsPerNode, c.World())
	want := evenLayout(tokens, newNodes*spec.GPUsPerNode, c.World())
	bIntra := stateBytesPerToken / spec.IntraBandwidth
	bInter := stateBytesPerToken / (float64(spec.NICsPerNode) * spec.NICBandwidth / float64(spec.GPUsPerNode))
	if bInter < bIntra {
		bInter = bIntra
	}
	plan, err := remap.SolveTarget(have, want, c, bIntra, bInter)
	if err != nil {
		return nil, 0, err
	}
	return plan, plan.MaxSenderCost, nil
}

// evenLayout spreads tokens evenly over the first `active` ranks of a
// `world`-sized vector (the remainder goes to the leading ranks).
func evenLayout(tokens, active, world int) []int {
	out := make([]int, world)
	if active <= 0 {
		return out
	}
	base, rem := tokens/active, tokens%active
	for r := 0; r < active && r < world; r++ {
		out[r] = base
		if r < rem {
			out[r]++
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Named scenarios
// ---------------------------------------------------------------------

// ByName builds a fault schedule from a scenario spec, scaled to a
// campaign horizon on a deployment of `nodes` nodes with ranksPerNode
// data-parallel ranks each. The grammar is
//
//	name[:key=value[,key=value...]]
//
// with scenarios (defaults in brackets, iteration windows scale with the
// horizon):
//
//	none | healthy  — no faults (returns nil)
//	straggler       — one rank runs x× slower for the middle half of the
//	                  campaign [rank=ranksPerNode/2, x=2.5, from=i/4, to=3i/4]
//	nic             — one NIC loses bandwidth [nic=1, x=0.25, from=i/4, to=3i/4]
//	failstop        — the last node fail-stops and later rejoins
//	                  [node=nodes-1, from=0.35i, to=0.65i, restart=30]
//	shrink          — graceful drain: a sick host on the last node
//	                  degrades (one rank slows x×), the scheduler
//	                  elastically shrinks the node away, and healthy
//	                  capacity grows back [node=nodes-1, rank=the node's
//	                  middle rank, x=3, warn=0.25i, from=0.55i, to=0.75i]
//
// Malformed specs (unknown scenario, unknown key, unparsable value)
// return an error; the CLI surfaces them as usage errors.
func ByName(spec string, iters, nodes, ranksPerNode int) (*Schedule, error) {
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	var paramErr error
	has := func(key string) bool { _, ok := params[key]; return ok }
	get := func(key string, def float64) float64 {
		if v, ok := params[key]; ok {
			delete(params, key)
			return v
		}
		return def
	}
	geti := func(key string, def int) int {
		v := get(key, float64(def))
		if v != math.Trunc(v) {
			if paramErr == nil {
				paramErr = fmt.Errorf("faults: parameter %s must be an integer, got %v", key, v)
			}
			return def
		}
		return int(v)
	}
	// Default windows scale with the horizon. Defaults adapt to whatever
	// the user pinned — an explicit `from` past the default `to` (or
	// vice versa) shifts the unpinned boundary so the window stays
	// well-formed; fully explicit windows are taken verbatim and
	// validated as given. Short campaigns floor collapsed defaults into
	// a well-formed (possibly past-the-horizon, i.e. inert) window.
	window := func(fromKey, toKey string, fromDef, toDef int) (int, int) {
		fromSet, toSet := has(fromKey), has(toKey)
		from := geti(fromKey, fromDef)
		to := geti(toKey, toDef)
		if !toSet && to <= from {
			to = from + 1
		}
		if !fromSet && from >= to {
			from = to - 1
			if from < 0 {
				from = 0
			}
		}
		return from, to
	}
	var s *Schedule
	switch name {
	case "none", "healthy":
		s = nil
	case "straggler":
		from, to := window("from", "to", iters/4, 3*iters/4)
		s = &Schedule{Name: "straggler", Stragglers: []Straggler{{
			Rank:   geti("rank", ranksPerNode/2),
			Factor: get("x", 2.5),
			From:   from,
			To:     to,
		}}}
	case "nic":
		from, to := window("from", "to", iters/4, 3*iters/4)
		s = &Schedule{Name: "nic", NICFaults: []NICFault{{
			NIC:    geti("nic", 1),
			Factor: get("x", 0.25),
			From:   from,
			To:     to,
		}}}
	case "failstop":
		from, to := window("from", "to", 35*iters/100, 65*iters/100)
		s = &Schedule{Name: "failstop", RestartCost: get("restart", 0), Outages: []NodeOutage{{
			Node:     geti("node", nodes-1),
			From:     from,
			To:       to,
			FailStop: true,
		}}}
	case "shrink":
		node := geti("node", nodes-1)
		rank := geti("rank", node*ranksPerNode+ranksPerNode/2)
		factor := get("x", 3)
		warn, from := window("warn", "from", iters/4, 11*iters/20)
		toSet := has("to")
		to := geti("to", 3*iters/4)
		if !toSet && to <= from {
			to = from + 1
		}
		// The drain's cause precedes it: a sick host on the leaving node
		// runs hot until the scheduler shrinks the node away; capacity
		// grows back healthy at the window's end.
		s = &Schedule{
			Name:       "shrink",
			Stragglers: []Straggler{{Rank: rank, Factor: factor, From: warn, To: from}},
			Outages:    []NodeOutage{{Node: node, From: from, To: to}},
		}
	default:
		return nil, fmt.Errorf("faults: unknown scenario %q (want none|straggler|nic|failstop|shrink)", name)
	}
	if paramErr != nil {
		return nil, paramErr
	}
	for key := range params {
		return nil, fmt.Errorf("faults: scenario %q does not take key %q", name, key)
	}
	return s, nil
}

// parseSpec splits "name:key=val,key=val" into its parts.
func parseSpec(spec string) (string, map[string]float64, error) {
	name, rest, has := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("faults: empty scenario spec")
	}
	params := make(map[string]float64)
	if !has {
		return name, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return "", nil, fmt.Errorf("faults: malformed parameter %q (want key=value)", kv)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return "", nil, fmt.Errorf("faults: parameter %s: %v", key, err)
		}
		params[key] = f
	}
	return name, params, nil
}
