package trace

import (
	"strings"
	"testing"

	"zeppelin/internal/sim"
)

func runEngine(t *testing.T) *sim.Engine {
	t.Helper()
	e := sim.NewEngine()
	gpu0 := e.NewResource(sim.ResourceName{Class: sim.ResCompute, Index: 0}, 0)
	gpu1 := e.NewResource(sim.ResourceName{Class: sim.ResCompute, Index: 1}, 0)
	nic := e.NewResource(sim.ResourceName{Class: sim.ResNICTx}, 100)
	a := e.Compute(sim.Named("attn/comp@0"), 0, gpu0, 1)
	b := e.Transfer(sim.Named("attn/kv0->1"), sim.KindInterComm, 1, nic, 200)
	c := e.Compute(sim.Named("attn/comp@1"), 1, gpu1, 1)
	c.After(a, b)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCollectSkipsBarriersAndSorts(t *testing.T) {
	e := runEngine(t)
	evs := Collect(e)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Rank < evs[i-1].Rank {
			t.Fatal("events not sorted by rank")
		}
	}
}

func TestFilter(t *testing.T) {
	e := runEngine(t)
	evs := Collect(e)
	if got := Filter(evs, "comp"); len(got) != 2 {
		t.Fatalf("filter comp = %d, want 2", len(got))
	}
	if got := Filter(evs, "nothing"); len(got) != 0 {
		t.Fatal("filter should return empty for no match")
	}
}

func TestSpan(t *testing.T) {
	e := runEngine(t)
	lo, hi := Span(Collect(e))
	if lo != 0 || hi != 3 {
		t.Fatalf("span = [%v, %v], want [0, 3]", lo, hi)
	}
	if lo, hi := Span(nil); lo != 0 || hi != 0 {
		t.Fatal("empty span should be zero")
	}
}

func TestTimelineRendersLanes(t *testing.T) {
	e := runEngine(t)
	var sb strings.Builder
	Timeline(&sb, Collect(e), []int{0, 1}, 60)
	out := sb.String()
	if !strings.Contains(out, "#") {
		t.Fatal("compute lane missing")
	}
	if !strings.Contains(out, "~") {
		t.Fatal("inter-comm lane missing")
	}
	if !strings.Contains(out, "rank   0") || !strings.Contains(out, "rank   1") {
		t.Fatalf("rank labels missing:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var sb strings.Builder
	Timeline(&sb, nil, []int{0}, 40)
	if !strings.Contains(sb.String(), "no events") {
		t.Fatal("empty timeline should say so")
	}
}

func TestStats(t *testing.T) {
	e := runEngine(t)
	sts := Stats(Collect(e))
	byKind := map[sim.Kind]RoundStats{}
	for _, st := range sts {
		byKind[st.Kind] = st
	}
	comp := byKind[sim.KindCompute]
	if comp.Count != 2 || !sim.AlmostEqual(comp.Total, 2) || !sim.AlmostEqual(comp.Mean, 1) {
		t.Fatalf("compute stats = %+v", comp)
	}
	inter := byKind[sim.KindInterComm]
	if inter.Count != 1 || !sim.AlmostEqual(inter.Max, 2) {
		t.Fatalf("inter stats = %+v", inter)
	}
	var sb strings.Builder
	WriteStats(&sb, Collect(e))
	if !strings.Contains(sb.String(), "compute") {
		t.Fatal("WriteStats missing compute row")
	}
}

func campaignRows(n int) []CampaignRow {
	rows := make([]CampaignRow, n)
	for i := range rows {
		rows[i] = CampaignRow{Iter: i, Time: 0.010 + 0.001*float64(i%5), Replan: i%4 == 0, Imbalance: 1.0 + 0.01*float64(i%3)}
	}
	return rows
}

func TestCampaignTimelineRendersRowsAndMarkers(t *testing.T) {
	var sb strings.Builder
	CampaignTimeline(&sb, campaignRows(6), 40, 50)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // header + 6 iteration rows
		t.Fatalf("rendered %d lines, want 7:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "'R' = replan") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Iterations 0 and 4 replanned; 1-3 and 5 did not.
	for i, wantMark := range []bool{true, false, false, false, true, false} {
		line := lines[i+1]
		if got := strings.Contains(line, " R  |"); got != wantMark {
			t.Errorf("iter %d replan marker = %v, want %v: %q", i, got, wantMark, line)
		}
		if !strings.Contains(line, "#") || !strings.Contains(line, "imb 1.0") {
			t.Errorf("iter %d row missing bar or imbalance: %q", i, line)
		}
	}
	// The slowest iteration's bar must span the full width.
	if !strings.Contains(out, "|"+strings.Repeat("#", 40)+"|") {
		t.Error("no full-width bar for the slowest iteration")
	}
}

func TestCampaignTimelineDownsamples(t *testing.T) {
	var sb strings.Builder
	CampaignTimeline(&sb, campaignRows(200), 40, 25)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 26 { // header + 25 stride rows
		t.Fatalf("rendered %d lines, want 26:\n%s", len(lines), out)
	}
	// Every stride of 8 contains a replan (period 4), so all rows carry R.
	for _, line := range lines[1:] {
		if !strings.Contains(line, " R  |") {
			t.Fatalf("downsampled row lost its replan marker: %q", line)
		}
	}
}

func TestCampaignTimelineEmpty(t *testing.T) {
	var sb strings.Builder
	CampaignTimeline(&sb, nil, 40, 25)
	if !strings.Contains(sb.String(), "(no iterations)") {
		t.Fatalf("empty rendering = %q", sb.String())
	}
}

func TestCampaignTimelineFaultMarkers(t *testing.T) {
	rows := []CampaignRow{
		{Iter: 0, Time: 0.010, Replan: true, Imbalance: 1.0},
		{Iter: 1, Time: 0.012, Mark: 'S', Note: "straggler:rank3 x2.5", Imbalance: 1.2},
		{Iter: 2, Time: 0.030, Replan: true, Mark: 'F', Note: "fail:node1", Imbalance: 1.1},
		{Iter: 3, Time: 0.011, Mark: 'E', Note: "grow:node1", Imbalance: 1.0},
	}
	var sb strings.Builder
	CampaignTimeline(&sb, rows, 40, 50)
	out := sb.String()
	for _, want := range []string{
		"'F' = fail-stop", " S |", "RF |", " E |",
		"straggler:rank3 x2.5", "fail:node1", "grow:node1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Healthy rows keep the legend terse.
	var healthy strings.Builder
	CampaignTimeline(&healthy, rows[:1], 40, 50)
	if strings.Contains(healthy.String(), "fail-stop") {
		t.Error("fault legend leaked into a healthy timeline")
	}
}

func TestCampaignDownsampleKeepsMarks(t *testing.T) {
	rows := make([]CampaignRow, 100)
	for i := range rows {
		rows[i] = CampaignRow{Iter: i, Time: 0.01, Imbalance: 1}
	}
	rows[37].Mark = 'F'
	rows[37].Note = "fail:node1"
	var sb strings.Builder
	CampaignTimeline(&sb, rows, 40, 10)
	if !strings.Contains(sb.String(), "F |") || !strings.Contains(sb.String(), "fail:node1") {
		t.Fatalf("downsampling dropped the fault mark:\n%s", sb.String())
	}
}
