package sim

import (
	"fmt"
	"math"
	"sort"
)

// schedule is the view of a finished run that the audit constraints
// check: each task's ready time (the end of its last dependency) and each
// resource's tasks in service order.
type schedule struct {
	e     *Engine
	ready []Time
	// onRes holds, per resource id, the tasks it executed ordered by
	// (Start, End, creation).
	onRes [][]*Task
}

func newSchedule(e *Engine) *schedule {
	s := &schedule{e: e, ready: make([]Time, len(e.tasks)), onRes: make([][]*Task, len(e.resources))}
	for _, t := range e.tasks {
		for _, succ := range t.succs {
			if t.End > s.ready[succ.id] {
				s.ready[succ.id] = t.End
			}
		}
		if t.res != nil {
			s.onRes[t.res.id] = append(s.onRes[t.res.id], t)
		}
	}
	for _, ts := range s.onRes {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Start != ts[j].Start {
				return ts[i].Start < ts[j].Start
			}
			if ts[i].End != ts[j].End {
				return ts[i].End < ts[j].End
			}
			return ts[i].id < ts[j].id
		})
	}
	return s
}

// report is the consumer every constraint yields its violations into. It
// returns false to stop the constraint early.
type report func(t *Task, format string, args ...any) bool

// constraint is one named schedule invariant; a new invariant is one more
// entry in constraints.
type constraint struct {
	name  string
	check func(s *schedule, fail report)
}

var constraints = []constraint{
	{"completed", func(s *schedule, fail report) {
		for _, t := range s.e.tasks {
			if t.state != stateDone && !fail(t, "never ran") {
				return
			}
		}
	}},
	{"starts-after-deps", func(s *schedule, fail report) {
		for _, t := range s.e.tasks {
			if t.Start < s.ready[t.id] && !fail(t, "starts at %v before its last dependency ends at %v", t.Start, s.ready[t.id]) {
				return
			}
		}
	}},
	{"runs-exec-time", func(s *schedule, fail report) {
		for _, t := range s.e.tasks {
			if d := t.execTime(); !AlmostEqual(t.End-t.Start, d) && !fail(t, "ran %v, execution time is %v", t.End-t.Start, d) {
				return
			}
		}
	}},
	{"serial-resource", func(s *schedule, fail report) {
		for _, ts := range s.onRes {
			for i := 1; i < len(ts); i++ {
				if ts[i].Start < ts[i-1].End && !fail(ts[i], "starts at %v while task %d %q runs until %v on %v",
					ts[i].Start, ts[i-1].id, ts[i-1].Label, ts[i-1].End, ts[i].res.Name) {
					return
				}
			}
		}
	}},
	// A resource serves its queue in ready order: no task starts strictly
	// before another task on the same resource that became ready strictly
	// earlier. Equal ready times may be served either way.
	{"fifo-ready-order", func(s *schedule, fail report) {
		for _, ts := range s.onRes {
			var latest *Task // latest-ready task among those that started strictly earlier
			for i := 0; i < len(ts); {
				j := i
				for j < len(ts) && ts[j].Start == ts[i].Start {
					if latest != nil && s.ready[ts[j].id] < s.ready[latest.id] &&
						!fail(ts[j], "ready at %v but served after task %d %q, ready at %v, on %v",
							s.ready[ts[j].id], latest.id, latest.Label, s.ready[latest.id], ts[j].res.Name) {
						return
					}
					j++
				}
				for ; i < j; i++ {
					if latest == nil || s.ready[ts[i].id] > s.ready[latest.id] {
						latest = ts[i]
					}
				}
			}
		}
	}},
	// Each task's End−Start carries a rounding error of the makespan's
	// magnitude, so the tolerance grows with the task count.
	{"busy-time", func(s *schedule, fail report) {
		for id, ts := range s.onRes {
			var sum Time
			for _, t := range ts {
				sum += t.End - t.Start
			}
			r := s.e.resources[id]
			slack := float64(len(ts)) * 0x1p-50 * math.Max(1, s.e.now)
			if math.Abs(sum-r.BusyTime) > slack && !AlmostEqual(sum, r.BusyTime) {
				var last *Task
				if len(ts) > 0 {
					last = ts[len(ts)-1]
				}
				if !fail(last, "resource %v: tasks ran %v in total, BusyTime is %v", r.Name, sum, r.BusyTime) {
					return
				}
			}
		}
	}},
	{"makespan-bounds-critical-path", func(s *schedule, fail report) {
		if cp := s.e.CriticalPath(); s.e.now < cp && !AlmostEqual(s.e.now, cp) {
			fail(nil, "makespan %v is below the critical path %v", s.e.now, cp)
		}
	}},
}

// Audit checks the schedule of an engine that has run against the
// simulator's invariants: every task ran for its execution time and
// started no earlier than its last dependency ended; no two tasks
// overlapped on a resource, and each resource served its queue in ready
// order; each resource's BusyTime is the time its tasks ran; and the
// makespan is at least the critical path. It returns an error naming the
// first violated constraint and the task that violates it, or nil.
func (e *Engine) Audit() error {
	s := newSchedule(e)
	var err error
	for _, c := range constraints {
		c.check(s, func(t *Task, format string, args ...any) bool {
			who := "engine"
			if t != nil {
				who = fmt.Sprintf("task %d %q", t.id, t.Label)
			}
			err = fmt.Errorf("sim: audit: %s: %s %s", c.name, who, fmt.Sprintf(format, args...))
			return false
		})
		if err != nil {
			return err
		}
	}
	return nil
}
