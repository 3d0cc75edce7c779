package collective

import (
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/sim"
)

func fab(t *testing.T, spec cluster.Spec, nodes int) (*sim.Engine, *cluster.Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, cluster.NewFabric(e, cluster.MustNew(spec, nodes))
}

func TestAllGatherSingleRankFree(t *testing.T) {
	one := cluster.Spec{
		Name: "one", GPUsPerNode: 1, NICsPerNode: 1, NICBandwidth: 1e9,
		IntraBandwidth: 1e9, GPUPeakFlops: 1, GPUMemory: 1,
	}
	e1 := sim.NewEngine()
	f1 := cluster.NewFabric(e1, cluster.MustNew(one, 1))
	AllGather(f1, sim.Named("ag"), 1e9)
	mk, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatalf("single-rank all-gather should be free, got %v", mk)
	}
}

func TestAllGatherZeroBytesFree(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	AllGather(f, sim.Named("ag"), 0)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatal("zero-byte collective should be free")
	}
}

func TestAllGatherUsesAllNICs(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	AllGather(f, sim.Named("ag"), 1e8)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for nic := range f.NICSend {
		if f.NICSend[nic].BusyTime == 0 || f.NICRecv[nic].BusyTime == 0 {
			t.Fatalf("NIC %d idle during all-gather", nic)
		}
	}
}

func TestAllGatherBandwidthModel(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 2)
	per := 1e8
	AllGather(f, sim.Named("ag"), per)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := per * 16
	// Cross-node share at the all-gather efficiency over 4 NICs per node.
	wantInter := total * 0.5 / allGatherEff / (4 * f.C.NICBandwidth)
	wantIntra := total * 15 / 16 / 0.8 / f.C.IntraBandwidth
	want := wantInter
	if wantIntra > want {
		want = wantIntra
	}
	if mk < want*0.9 || mk > want*1.5 {
		t.Fatalf("all-gather time %v, expected ~%v", mk, want)
	}
}

func TestAllToAllVSkipsDegenerate(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 1)
	AllToAllV(f, sim.Named("a2a"), []Transfer{
		{From: 0, To: 0, Bytes: 1e9}, // self
		{From: 1, To: 2, Bytes: 0},   // empty
	})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 0 {
		t.Fatal("degenerate transfers should be free")
	}
}

func TestAllToAllVParallelism(t *testing.T) {
	e, f := fab(t, cluster.ClusterA, 1)
	var ts []Transfer
	for i := 0; i < 4; i++ {
		ts = append(ts, Transfer{From: 2 * i, To: 2*i + 1, Bytes: f.C.IntraBandwidth / 10})
	}
	AllToAllV(f, sim.Named("a2a"), ts)
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mk > 0.11 {
		t.Fatalf("disjoint transfers should overlap: %v", mk)
	}
}

func TestAllToAllSkipsEmptyRanks(t *testing.T) {
	// Two nodes: rank 3 has no volume and must emit no task at all.
	e, f := fab(t, cluster.ClusterA, 2)
	vol := make([]float64, f.C.World())
	for r := range vol {
		vol[r] = 1e6
	}
	vol[3] = 0
	AllToAll(f, sim.Named("a2a"), vol)
	perRank := map[int]int{}
	for _, tk := range e.Tasks() {
		if tk.Kind != sim.KindBarrier {
			perRank[tk.Rank]++
		}
	}
	if perRank[3] != 0 {
		t.Fatalf("zero-volume rank emitted %d tasks", perRank[3])
	}
	if perRank[0] != 3 { // tx, rx and nvs
		t.Fatalf("rank 0 emitted %d tasks, want 3", perRank[0])
	}

	// One node: no volume crosses a NIC.
	e, f = fab(t, cluster.ClusterA, 1)
	vol = make([]float64, f.C.World())
	for r := range vol {
		vol[r] = 1e6
	}
	AllToAll(f, sim.Named("a2a"), vol)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range e.Tasks() {
		if tk.Kind == sim.KindInterComm {
			t.Fatalf("one-node all-to-all emitted NIC task %q", tk.Label)
		}
	}
	for nic := range f.NICSend {
		if f.NICSend[nic].BusyTime != 0 || f.NICRecv[nic].BusyTime != 0 {
			t.Fatalf("NIC %d busy in a one-node all-to-all", nic)
		}
	}
}
