package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/sim"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// scheduleDigest hashes every task of a simulated graph in creation
// order: label, kind, rank, duration, size, start and end. Unlike a
// headline golden it moves when any task is added, dropped, reordered,
// relabelled or rescheduled.
func scheduleDigest(tasks []*sim.Task) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, t := range tasks {
		h.Write([]byte(t.Label.String()))
		h.Write([]byte{0, byte(t.Kind)})
		u64(uint64(int64(t.Rank)))
		for _, f := range []float64{t.Duration, t.Size, t.Start, t.End} {
			u64(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// prefixPhases is trainer's per-rank phase breakdown as it was computed
// from text labels, by the first of five label prefixes a task matches.
// It stays as the oracle for the switch on typed label stages.
func prefixPhases(tasks []*sim.Task, world int) map[string][]float64 {
	out := make(map[string][]float64)
	for _, t := range tasks {
		if t.Kind == sim.KindBarrier {
			continue
		}
		label := t.Label.String()
		key := "other"
		for _, p := range []string{"attn-fwd", "attn-bwd", "linear-fwd", "linear-bwd", "remap"} {
			if strings.HasPrefix(label, p) {
				key = p
				break
			}
		}
		if out[key] == nil {
			out[key] = make([]float64, world)
		}
		if t.Rank >= 0 && t.Rank < world {
			out[key][t.Rank] += t.End - t.Start
		}
	}
	return out
}

// digestMethods are the methods the schedule digests cover: the four
// Zeppelin ablation variants (Routing × Remap) and every baseline.
func digestMethods() []trainer.Method {
	return []trainer.Method{
		zeppelin.Method{},
		zeppelin.Method{Remap: true},
		zeppelin.Method{Routing: true},
		zeppelin.Full(),
		baselines.TECP{},
		baselines.TECP{Routed: true},
		baselines.LLaMACP{},
		baselines.HybridDP{},
		baselines.Packing{},
	}
}

// digestCell is one configuration the schedule digests cover.
type digestCell struct {
	name string
	cfg  trainer.Config
}

// digestCells are multi-node dense and MoE cells on both NIC layouts, a
// one-node MoE cell (no NIC traffic), and one-GPU worlds where every
// ring shortcut applies.
func digestCells() []digestCell {
	oneGPU := cluster.ClusterA
	oneGPU.Name, oneGPU.GPUsPerNode, oneGPU.NICsPerNode = "1gpu", 1, 1
	return []digestCell{
		{"7B/2xA", trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2}},
		{"7B/2xB", trainer.Config{Model: model.LLaMA7B, Spec: cluster.ClusterB, Nodes: 2}},
		{"8x550M/2xA", trainer.Config{Model: model.MoE8x550M, Spec: cluster.ClusterA, Nodes: 2}},
		{"8x550M/1xA", trainer.Config{Model: model.MoE8x550M, Spec: cluster.ClusterA, Nodes: 1}},
		{"7B/1gpu", trainer.Config{Model: model.LLaMA7B, Spec: oneGPU, Nodes: 1}},
		{"8x550M/1gpu", trainer.Config{Model: model.MoE8x550M, Spec: oneGPU, Nodes: 1}},
	}
}

// scheduleDigests pins every (cell, method) schedule of this revision. A
// refactor of the emitters must leave each hex unchanged; an intentional
// schedule change re-pins them and says so in the commit.
var scheduleDigests = map[string]string{
	"7B/2xA|Zeppelin w/ Attn Eng":                "f5b8f4a1f5b9eda2",
	"7B/2xA|Zeppelin w/ Attn Eng & Remap":        "af113ebb80babbc5",
	"7B/2xA|Zeppelin w/ Routing & Attn Eng":      "615564d1ce530b56",
	"7B/2xA|Zeppelin":                            "526536fd783473e0",
	"7B/2xA|TE CP":                               "104e641e25c01b6d",
	"7B/2xA|TE CP + Routing":                     "14759efcd9e768b5",
	"7B/2xA|LLaMA CP":                            "2d5e49d3d942831d",
	"7B/2xA|Hybrid DP":                           "91b25ab6e41d53e7",
	"7B/2xA|Packing+Ulysses":                     "44120991b345d06d",
	"7B/2xB|Zeppelin w/ Attn Eng":                "e81b856bda14aa4a",
	"7B/2xB|Zeppelin w/ Attn Eng & Remap":        "33c7f081cb625ebf",
	"7B/2xB|Zeppelin w/ Routing & Attn Eng":      "e6e260dc64c04af7",
	"7B/2xB|Zeppelin":                            "d9c79f76276336b0",
	"7B/2xB|TE CP":                               "0ed2e32fc8aa5353",
	"7B/2xB|TE CP + Routing":                     "d1b331288f0397d9",
	"7B/2xB|LLaMA CP":                            "dcf7275f85af1aaf",
	"7B/2xB|Hybrid DP":                           "888678c7e2546e0d",
	"7B/2xB|Packing+Ulysses":                     "446e2ead6fc3bae1",
	"8x550M/2xA|Zeppelin w/ Attn Eng":            "3f0bd656054e8559",
	"8x550M/2xA|Zeppelin w/ Attn Eng & Remap":    "5cd173f1b7a72c2d",
	"8x550M/2xA|Zeppelin w/ Routing & Attn Eng":  "62d47805ae4ec8fc",
	"8x550M/2xA|Zeppelin":                        "5880a77ef524960c",
	"8x550M/2xA|TE CP":                           "adf0944adc2cd9ff",
	"8x550M/2xA|TE CP + Routing":                 "0b621755a5e62b1b",
	"8x550M/2xA|LLaMA CP":                        "38d3add505121fe9",
	"8x550M/2xA|Hybrid DP":                       "f56bbb7240d81ceb",
	"8x550M/2xA|Packing+Ulysses":                 "0cd30718b7484865",
	"8x550M/1xA|Zeppelin w/ Attn Eng":            "da29bb0c318c0dbf",
	"8x550M/1xA|Zeppelin w/ Attn Eng & Remap":    "fd79ccdc2c68cdcf",
	"8x550M/1xA|Zeppelin w/ Routing & Attn Eng":  "da29bb0c318c0dbf",
	"8x550M/1xA|Zeppelin":                        "fd79ccdc2c68cdcf",
	"8x550M/1xA|TE CP":                           "f0462d9241b870fb",
	"8x550M/1xA|TE CP + Routing":                 "f0462d9241b870fb",
	"8x550M/1xA|LLaMA CP":                        "0e32e90670ae69cf",
	"8x550M/1xA|Hybrid DP":                       "6873bcd02e3ef05d",
	"8x550M/1xA|Packing+Ulysses":                 "e5382d617c6a313d",
	"7B/1gpu|Zeppelin w/ Attn Eng":               "39ebd9007c202f89",
	"7B/1gpu|Zeppelin w/ Attn Eng & Remap":       "910e9e71a7529361",
	"7B/1gpu|Zeppelin w/ Routing & Attn Eng":     "39ebd9007c202f89",
	"7B/1gpu|Zeppelin":                           "910e9e71a7529361",
	"7B/1gpu|TE CP":                              "00d77b27907606d1",
	"7B/1gpu|TE CP + Routing":                    "00d77b27907606d1",
	"7B/1gpu|LLaMA CP":                           "a0ec8f06df41cfe1",
	"7B/1gpu|Hybrid DP":                          "38f478201e103375",
	"7B/1gpu|Packing+Ulysses":                    "73dcec882a8d97d9",
	"8x550M/1gpu|Zeppelin w/ Attn Eng":           "41cb047f9cf7cf13",
	"8x550M/1gpu|Zeppelin w/ Attn Eng & Remap":   "dd242a92b2bfeeb3",
	"8x550M/1gpu|Zeppelin w/ Routing & Attn Eng": "41cb047f9cf7cf13",
	"8x550M/1gpu|Zeppelin":                       "dd242a92b2bfeeb3",
	"8x550M/1gpu|TE CP":                          "36a1360f37d2741f",
	"8x550M/1gpu|TE CP + Routing":                "36a1360f37d2741f",
	"8x550M/1gpu|LLaMA CP":                       "d5f9c1cb85e0e64b",
	"8x550M/1gpu|Hybrid DP":                      "b88ae433faf91353",
	"8x550M/1gpu|Packing+Ulysses":                "0623e3dd8de9365f",
}

// TestScheduleDigests runs NewEnv, Plan and RunPlanned for every method
// on every digest cell, audits the schedule against the simulator's
// invariants, checks the per-rank phase breakdown against the
// label-prefix oracle and compares the digest with its pin. The
// ProLong64k batch at seed 5 puts sequences on cross-node rings, so the
// routed and unrouted Zeppelin variants schedule differently and both
// transfer paths are covered.
func TestScheduleDigests(t *testing.T) {
	for _, c := range digestCells() {
		cfg := c.cfg
		cfg.Seed = 5
		batch := cfg.Batch(workload.ProLong64k.Batch)
		for _, m := range digestMethods() {
			key := c.name + "|" + m.Name()
			env, err := cfg.NewEnv()
			if err != nil {
				t.Fatal(err)
			}
			pl, err := m.Plan(env, batch)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			res, err := trainer.RunPlanned(cfg, m.Name(), env, pl, batch)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := env.E.Audit(); err != nil {
				t.Errorf("%s: %v", key, err)
			}
			if want := prefixPhases(env.E.Tasks(), env.C.World()); !reflect.DeepEqual(res.PerRankPhase, want) {
				t.Errorf("%s: per-rank phases %v, label-prefix oracle %v", key, res.PerRankPhase, want)
			}
			if got := fmt.Sprintf("%016x", scheduleDigest(env.E.Tasks())); got != scheduleDigests[key] {
				t.Errorf("%s: schedule digest %s, want %s", key, got, scheduleDigests[key])
			}
		}
	}
	if n := len(digestCells()) * len(digestMethods()); n != len(scheduleDigests) {
		t.Errorf("%d pinned digests for %d cells", len(scheduleDigests), n)
	}
	// Cross-node rings must take a different path with routing on.
	for _, cell := range []string{"7B/2xA", "7B/2xB", "8x550M/2xA"} {
		if scheduleDigests[cell+"|Zeppelin"] == scheduleDigests[cell+"|Zeppelin w/ Attn Eng & Remap"] {
			t.Errorf("%s: routed and unrouted Zeppelin pin the same schedule", cell)
		}
	}
}
