// Package trace captures per-task execution records from a simulation and
// renders ASCII timelines in the style of the paper's Fig. 12: one lane
// per (rank, activity kind), showing how attention computation overlaps
// intra- and inter-node communication round by round.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"zeppelin/internal/sim"
)

// Event is one completed task occurrence.
type Event struct {
	Rank       int
	Kind       sim.Kind
	Label      string
	Start, End float64
}

// Collect extracts completed, non-barrier tasks from an engine that has
// already run.
func Collect(e *sim.Engine) []Event {
	var out []Event
	for _, t := range e.Tasks() {
		if t.Kind == sim.KindBarrier || t.End <= t.Start {
			continue
		}
		out = append(out, Event{Rank: t.Rank, Kind: t.Kind, Label: t.Label.String(), Start: t.Start, End: t.End})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Filter keeps events whose label contains the substring.
func Filter(events []Event, substr string) []Event {
	var out []Event
	for _, ev := range events {
		if strings.Contains(ev.Label, substr) {
			out = append(out, ev)
		}
	}
	return out
}

// Span returns the earliest start and latest end across events.
func Span(events []Event) (float64, float64) {
	if len(events) == 0 {
		return 0, 0
	}
	lo, hi := events[0].Start, events[0].End
	for _, ev := range events {
		if ev.Start < lo {
			lo = ev.Start
		}
		if ev.End > hi {
			hi = ev.End
		}
	}
	return lo, hi
}

// laneChar maps a kind to its timeline glyph: '#' compute, '=' intra-node
// communication, '~' inter-node communication, '+' memory ops.
func laneChar(k sim.Kind) byte {
	switch k {
	case sim.KindCompute:
		return '#'
	case sim.KindIntraComm:
		return '='
	case sim.KindInterComm:
		return '~'
	case sim.KindMemOp:
		return '+'
	default:
		return '?'
	}
}

// Timeline renders a fixed-width ASCII gantt for the chosen ranks, one
// line per (rank, kind) lane that has any activity. Durations are scaled
// to width columns over the events' span.
func Timeline(w io.Writer, events []Event, ranks []int, width int) {
	if width <= 0 {
		width = 100
	}
	lo, hi := Span(events)
	if hi <= lo {
		fmt.Fprintln(w, "(no events)")
		return
	}
	scale := float64(width) / (hi - lo)
	kinds := []sim.Kind{sim.KindCompute, sim.KindIntraComm, sim.KindInterComm}
	fmt.Fprintf(w, "span %.3f ms .. %.3f ms  ('#'=compute '='=intra '~'=inter)\n", lo*1e3, hi*1e3)
	for _, r := range ranks {
		for _, k := range kinds {
			line := make([]byte, width)
			for i := range line {
				line[i] = '.'
			}
			any := false
			for _, ev := range events {
				if ev.Rank != r || ev.Kind != k {
					continue
				}
				any = true
				s := int((ev.Start - lo) * scale)
				e := int((ev.End - lo) * scale)
				if e <= s {
					e = s + 1
				}
				if e > width {
					e = width
				}
				for i := s; i < e; i++ {
					line[i] = laneChar(k)
				}
			}
			if any {
				fmt.Fprintf(w, "rank %3d %-10s |%s|\n", r, k, line)
			}
		}
	}
}

// CampaignRow is one campaign iteration in the timeline renderer's
// input: its simulated duration, whether the partitioner ran, the
// realized per-rank imbalance, and an optional fault marker.
// internal/campaign produces these via Report.TraceRows.
type CampaignRow struct {
	Iter   int
	Time   float64 // seconds
	Replan bool
	// Flip marks an iteration whose replan verdict a counterfactual
	// replay overrode; it renders as '*' in place of the replan marker.
	Flip      bool
	Imbalance float64
	// Mark is a one-glyph fault/recovery marker ('F' fail-stop, 'E'
	// elastic resize, 'S' straggler/NIC degradation, '+' recovery;
	// 0 = none), rendered next to the replan marker.
	Mark byte
	// Note annotates the row with the underlying fault events.
	Note string
}

// CampaignTimeline renders an iteration-per-row timeline of a campaign:
// each row is a bar scaled to the slowest iteration, prefixed with an
// 'R' marker on replan iterations and annotated with the iteration time
// and imbalance. Campaigns longer than maxRows are downsampled into
// equal strides; a stride row reports the mean time, the worst
// imbalance, and carries the marker if any member replanned.
func CampaignTimeline(w io.Writer, rows []CampaignRow, width, maxRows int) {
	if width <= 0 {
		width = 60
	}
	if maxRows <= 0 {
		maxRows = 50
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no iterations)")
		return
	}
	rows = downsample(rows, maxRows)
	var maxTime float64
	anyMark, anyFlip := false, false
	for _, r := range rows {
		if r.Time > maxTime {
			maxTime = r.Time
		}
		if r.Mark != 0 {
			anyMark = true
		}
		if r.Flip {
			anyFlip = true
		}
	}
	if maxTime <= 0 {
		fmt.Fprintln(w, "(no iterations)")
		return
	}
	legend := "'R' = replan"
	if anyFlip {
		legend += ", '*' = flipped decision"
	}
	if anyMark {
		legend += ", 'F' = fail-stop, 'E' = elastic resize, 'S' = straggler/NIC, '+' = recovery"
	}
	fmt.Fprintf(w, "campaign timeline: %d rows, bar = iteration time (max %.2f ms), %s\n",
		len(rows), maxTime*1e3, legend)
	for _, r := range rows {
		n := int(r.Time / maxTime * float64(width))
		if n < 1 {
			n = 1
		}
		if n > width {
			n = width
		}
		marker := ' '
		if r.Replan {
			marker = 'R'
		}
		if r.Flip {
			marker = '*'
		}
		mark := ' '
		if r.Mark != 0 {
			mark = rune(r.Mark)
		}
		note := ""
		if r.Note != "" {
			note = "  " + r.Note
		}
		fmt.Fprintf(w, "iter %4d %c%c |%-*s| %8.2f ms  imb %.2f%s\n",
			r.Iter, marker, mark, width, strings.Repeat("#", n), r.Time*1e3, r.Imbalance, note)
	}
}

// MarkSeverity orders campaign fault marks, most severe highest: a
// fail-stop outranks an elastic resize outranks a degradation onset
// outranks a recovery. Downsampled strides keep their most severe mark,
// and producers folding several events into one mark use the same order.
func MarkSeverity(b byte) int {
	switch b {
	case 'F':
		return 4
	case 'E':
		return 3
	case 'S':
		return 2
	case '+':
		return 1
	}
	return 0
}

// downsample folds rows into at most maxRows equal strides: mean time,
// max imbalance, replan if any member replanned, the most severe fault
// mark, first member's index.
func downsample(rows []CampaignRow, maxRows int) []CampaignRow {
	if len(rows) <= maxRows {
		return rows
	}
	stride := (len(rows) + maxRows - 1) / maxRows
	out := make([]CampaignRow, 0, maxRows)
	for lo := 0; lo < len(rows); lo += stride {
		hi := lo + stride
		if hi > len(rows) {
			hi = len(rows)
		}
		agg := CampaignRow{Iter: rows[lo].Iter}
		for _, r := range rows[lo:hi] {
			agg.Time += r.Time
			if r.Replan {
				agg.Replan = true
			}
			if r.Flip {
				agg.Flip = true
			}
			if r.Imbalance > agg.Imbalance {
				agg.Imbalance = r.Imbalance
			}
			if MarkSeverity(r.Mark) > MarkSeverity(agg.Mark) {
				agg.Mark = r.Mark
				agg.Note = r.Note
			}
		}
		agg.Time /= float64(hi - lo)
		out = append(out, agg)
	}
	return out
}

// RoundStats summarizes per-kind totals and mean durations, mirroring the
// per-round annotations in Fig. 12 (e.g. "2.18 ms (15->0)").
type RoundStats struct {
	Kind  sim.Kind
	Count int
	Total float64
	Mean  float64
	Max   float64
}

// Stats aggregates events by kind.
func Stats(events []Event) []RoundStats {
	agg := make(map[sim.Kind]*RoundStats)
	for _, ev := range events {
		st, ok := agg[ev.Kind]
		if !ok {
			st = &RoundStats{Kind: ev.Kind}
			agg[ev.Kind] = st
		}
		d := ev.End - ev.Start
		st.Count++
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
	}
	var out []RoundStats
	for _, st := range agg {
		st.Mean = st.Total / float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// WriteStats prints the aggregate table.
func WriteStats(w io.Writer, events []Event) {
	for _, st := range Stats(events) {
		fmt.Fprintf(w, "%-12s count=%4d total=%8.3f ms  mean=%7.3f ms  max=%7.3f ms\n",
			st.Kind, st.Count, st.Total*1e3, st.Mean*1e3, st.Max*1e3)
	}
}
