package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"zeppelin/internal/seq"
)

// interResult is one Alg. 1 evaluation's outcome, detached from any
// scratch so two implementations can be compared.
type interResult struct {
	ok       bool
	nodeSeqs [][]seq.Sequence
	inters   []interPlacement
	z01Head  seq.Sequence // the caller's next threshold source when !ok
}

// refEvalInter is the scan-based Alg. 1 evaluation evalInter replaced:
// every z01 sequence rescans all nodes with argminLoad, and every z2
// sequence selects its k nodes with leastLoaded. It is the differential
// oracle for the heap.
func refEvalInter(sorted []seq.Sequence, n, pp, l, s1 int, nodeSpeed []float64) interResult {
	var ps pickScratch
	nodeLoad := make([]int, n)
	res := interResult{ok: true, nodeSeqs: make([][]seq.Sequence, n)}
	var z01, z2 []seq.Sequence
	for _, s := range sorted {
		if s.Len >= s1 {
			z2 = append(z2, s)
		} else {
			z01 = append(z01, s)
		}
	}
	if len(z2) > 0 {
		sAvg := float64(seq.TotalLen(z2)) / float64(n)
		for _, s := range z2 {
			k := int(math.Ceil(float64(s.Len) / sAvg))
			k = max(1, min(k, n))
			nodes := slices.Clone(ps.leastLoaded(nodeLoad, k, nodeSpeed))
			share := seq.SplitEven(s.Len, k)
			if nodeSpeed != nil {
				w := make([]float64, k)
				for i, nd := range nodes {
					w[i] = nodeSpeed[nd]
				}
				share = seq.SplitWeightedInto(nil, s.Len, w)
			}
			for i, nd := range nodes {
				nodeLoad[nd] += share[i]
			}
			res.inters = append(res.inters, interPlacement{s: s, nodes: nodes})
		}
	}
	for _, s := range z01 {
		idx := argminLoad(nodeLoad, nodeSpeed)
		if s.Len+nodeLoad[idx] > pp*l {
			res.ok, res.z01Head = false, z01[0]
			return res
		}
		res.nodeSeqs[idx] = append(res.nodeSeqs[idx], s)
		nodeLoad[idx] += s.Len
	}
	return res
}

// heapEvalInter runs evalInter and copies its outcome out of scr.
func heapEvalInter(scr *interScratch, sorted []seq.Sequence, n, pp, l, s1 int, nodeSpeed []float64) interResult {
	res := interResult{ok: evalInter(scr, sorted, n, pp, l, s1, nodeSpeed)}
	for _, ns := range scr.nodeSeqs {
		res.nodeSeqs = append(res.nodeSeqs, slices.Clone(ns))
	}
	res.inters = slices.Clone(scr.inters)
	if !res.ok {
		res.z01Head = scr.z01[0]
	}
	return res
}

// diffInter describes the first difference between two outcomes, or
// returns "" when they are identical.
func diffInter(got, want interResult) string {
	if got.ok != want.ok {
		return fmt.Sprintf("ok = %v, want %v", got.ok, want.ok)
	}
	if !got.ok && got.z01Head != want.z01Head {
		return fmt.Sprintf("z01 head = %v, want %v", got.z01Head, want.z01Head)
	}
	if len(got.nodeSeqs) != len(want.nodeSeqs) {
		return fmt.Sprintf("%d node lists, want %d", len(got.nodeSeqs), len(want.nodeSeqs))
	}
	for nd := range want.nodeSeqs {
		if !slices.Equal(got.nodeSeqs[nd], want.nodeSeqs[nd]) {
			return fmt.Sprintf("node %d holds %v, want %v", nd, got.nodeSeqs[nd], want.nodeSeqs[nd])
		}
	}
	if len(got.inters) != len(want.inters) {
		return fmt.Sprintf("%d inter placements, want %d", len(got.inters), len(want.inters))
	}
	for i, w := range want.inters {
		g := got.inters[i]
		if g.s != w.s || !slices.Equal(g.nodes, w.nodes) {
			return fmt.Sprintf("inter %d = %v on %v, want %v on %v", i, g.s, g.nodes, w.s, w.nodes)
		}
	}
	return ""
}

// checkInterMatchesRef walks Alg. 1's threshold chain from P·L down, as
// interNode does, and requires the heap and the scan to agree at every
// threshold, failures included. One scratch serves the whole chain, so
// state leaking between evaluations shows up too.
func checkInterMatchesRef(t *testing.T, sorted []seq.Sequence, n, pp, l int, nodeSpeed []float64) {
	t.Helper()
	var scr interScratch
	s1 := pp * l
	for iter := 0; iter <= len(sorted); iter++ {
		got := heapEvalInter(&scr, sorted, n, pp, l, s1, nodeSpeed)
		want := refEvalInter(sorted, n, pp, l, s1, nodeSpeed)
		if d := diffInter(got, want); d != "" {
			t.Fatalf("%d nodes, P=%d, L=%d, speeds %v, s1=%d: %s", n, pp, l, nodeSpeed, s1, d)
		}
		if got.ok {
			return
		}
		s1 = got.z01Head.Len
	}
	t.Fatalf("threshold chain did not converge")
}

// tieBatch draws a descending batch from a few lengths so that equal
// lengths, and with them equal node loads, are the rule: some lengths
// are whole multiples of the node capacity P·L, and most of the rest
// are multiples of one small unit.
func tieBatch(rng *rand.Rand, n, pp, l int) []seq.Sequence {
	unit := 1 + rng.Intn(l)
	lens := []int{unit, unit, 2 * unit, 4 * unit, pp * l, 2 * pp * l, 1 + rng.Intn(pp*l)}
	remaining := int(float64(n*pp*l) * (0.3 + 0.7*rng.Float64()))
	var batch []seq.Sequence
	for id := 0; remaining > 0; id++ {
		ln := min(lens[rng.Intn(len(lens))], remaining)
		batch = append(batch, seq.Sequence{ID: id, Len: ln})
		remaining -= ln
	}
	seq.SortByLenDesc(batch)
	return batch
}

// tieSpeeds returns a node speed vector from {0.5, 1, 2, 4} (or nil),
// where a node at speed 2 with load 2x ties exactly with one at speed 1
// with load x.
func tieSpeeds(rng *rand.Rand, n int) []float64 {
	if rng.Intn(3) == 0 {
		return nil
	}
	sp := make([]float64, n)
	for i := range sp {
		sp[i] = []float64{0.5, 1, 2, 4}[rng.Intn(4)]
	}
	return sp
}

func TestEvalInterMatchesScan(t *testing.T) {
	equal := func(count, length int) []seq.Sequence {
		b := make([]seq.Sequence, count)
		for i := range b {
			b[i] = seq.Sequence{ID: i, Len: length}
		}
		return b
	}
	cases := []struct {
		name   string
		batch  []seq.Sequence
		n, pp  int
		l      int
		speeds []float64
	}{
		// Every node load stays equal after each round of placements.
		{"all-equal", equal(32, 100), 8, 8, 100, nil},
		{"all-equal-overfull", equal(70, 100), 8, 8, 100, nil},
		// Three z2 sequences of equal length chunk over tied nodes.
		{"equal-z2", append(equal(3, 4000), equal(10, 50)...), 4, 4, 250, nil},
		// Speeds 1 and 2: the z2 split leaves loads 200 and 400, equal
		// effective loads, so the first z01 sequence goes by index — onto
		// the node with room, or onto the full one, which fails.
		{"speed-tie", append(equal(1, 600), equal(6, 10)...), 2, 4, 100, []float64{1, 2}},
		{"speed-tie-reversed", append(equal(1, 600), equal(6, 10)...), 2, 4, 100, []float64{2, 1}},
		{"speed-tie-wide", append(equal(2, 3000), equal(40, 20)...), 6, 8, 100, []float64{4, 2, 1, 2, 4, 1}},
		{"single-node", equal(12, 300), 1, 8, 512, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkInterMatchesRef(t, tc.batch, tc.n, tc.pp, tc.l, tc.speeds)
		})
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		n, pp, l := 1+rng.Intn(24), []int{1, 4, 8}[rng.Intn(3)], 16+rng.Intn(2048)
		checkInterMatchesRef(t, tieBatch(rng, n, pp, l), n, pp, l, tieSpeeds(rng, n))
	}
}

func FuzzEvalInter(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 4242} {
		f.Add(seed, uint8(8), uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, pp := 1+int(nodes)%64, []int{1, 2, 4, 8}[shape%4]
		l := 1 + rng.Intn(4096)
		checkInterMatchesRef(t, tieBatch(rng, n, pp, l), n, pp, l, tieSpeeds(rng, n))
	})
}
