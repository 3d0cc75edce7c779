// Command zbench is the repository benchmark. It runs one of three
// closed-loop workloads (one client issuing one op after another), checks
// every op's output, and prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, checks that both produce
// the same outputs, and prints the per-layer metrics instead.
//
//	zbench --workload train-prolong|plan-4k|serve-burst --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and the layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
// holdoutSeed is reserved: no tuning is done on it, so a performance
// claim can be re-checked on inputs its change was not developed on.
const (
	defaultSeed = 1
	holdoutSeed = 7919
)

// pass is one fixed op sequence of a workload, built from a pass seed.
// Its inputs are generated when it is constructed (benchmark side,
// untimed); setup is the program's set-up (timed as setup_s).
type pass interface {
	setup() error
	// op runs the next op; false means the pass had no op left.
	op() (bool, error)
	// check validates the op just run; it is not timed.
	check() error
	// end runs the pass-level checks after the last op.
	end() (passOutputs, error)
}

// passOutputs is what a pass leaves behind: the digest of its output
// stream, the identities of its inputs and its simulated quality.
type passOutputs struct {
	digest       hash.Hash64
	inputs       []uint64
	imbalance    float64 // mean max/mean per-rank load of the op outputs
	tokensPerSec float64 // campaign goodput
	missRate     float64 // serve SLO misses (violations+unserved)/requests
}

func (o *passOutputs) add(b []byte) {
	if o.digest == nil {
		o.digest = fnv.New64a()
	}
	o.digest.Write(b)
}

func (o *passOutputs) sum() uint64 {
	if o.digest == nil {
		return 0
	}
	return o.digest.Sum64()
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	newPass func(seed int64, t *tracer) (pass, error)
	// passSeconds is the nominal length of one untraced pass: its wall
	// time at the commit that defined the benchmark, on a 2-vCPU x86-64
	// virtual machine. It turns --seconds into a pass count.
	passSeconds float64
}

var workloads = map[string]benchWorkload{
	"train-prolong": {func(seed int64, t *tracer) (pass, error) { return newCampaignPass(false, seed, prolongIters, t) }, 2.2},
	"serve-burst":   {func(seed int64, t *tracer) (pass, error) { return newCampaignPass(true, seed, 0, t) }, 0.9},
	"plan-4k":       {func(seed int64, t *tracer) (pass, error) { return newPlanPass(seed, t) }, 0.6},
}

// minPasses is the fewest passes a run makes, however short --seconds.
const minPasses = 4

// passCount is the number of passes a run of about seconds makes. It
// depends on seconds only, so every commit runs the same passes and a
// faster commit simply finishes sooner. A traced run runs each pass twice
// (untraced, then traced), so it makes half as many.
func (w benchWorkload) passCount(seconds int, traced bool) int {
	n := float64(seconds) / w.passSeconds
	if traced {
		n /= 2
	}
	return max(minPasses, int(math.Round(n)))
}

// passSeed derives pass p's seed from the workload seed (splitmix64), so
// every pass of a run sees fresh inputs and the same seed always gives
// the same passes. It is never 0, which the program reads as "default".
func passSeed(seed int64, p int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// phase is the result of running one workload's passes in one mode.
type phase struct {
	attempted, failed int
	opNs              []float64 // per-op wall time
	opCPU             []float64 // per-op CPU time of the op's thread
	procCPU           float64   // process CPU time inside op windows
	passCPU           []float64 // per-pass sum of opCPU
	setupCPU          []float64 // set-up CPU time of the calling thread
	digests           []uint64
	quality           passOutputs // mean simulated quality of the passes
	inputs, repeats   int
	seen              map[uint64]bool
	allocBytes        uint64
	allocObjects      uint64
	gcCPU, gcCycles   float64
	errs              []string
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime(s []metrics.Sample) (allocB, allocO uint64, gcCPU, gcCycles float64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), float64(s[3].Value.Uint64())
}

// runPasses runs a fixed number of passes of a workload. Each pass runs
// once per mode, back to back: a nil tracer is the untraced run, a tracer
// the traced run, so the two see the same inputs under the same machine
// conditions. Only op calls are timed as ops; set-ups are timed
// separately, and input generation and output checks are not timed.
func runPasses(newPass func(int64, *tracer) (pass, error), seed int64, passes int, modes []*tracer) ([]*phase, error) {
	phases := make([]*phase, len(modes))
	for m := range phases {
		phases[m] = &phase{seen: make(map[uint64]bool)}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	for p := range passes {
		for m, t := range modes {
			if t != nil {
				t.fold()
			}
			ps, err := newPass(passSeed(seed, p), t)
			if err != nil {
				return nil, err
			}
			if err := phases[m].run(ps, p, samples); err != nil {
				return nil, err
			}
		}
	}
	for _, ph := range phases {
		ph.quality.imbalance /= float64(passes)
		ph.quality.tokensPerSec /= float64(passes)
		ph.quality.missRate /= float64(passes)
	}
	return phases, nil
}

// run times one pass's set-up and ops into the phase.
func (ph *phase) run(ps pass, p int, samples []metrics.Sample) error {
	fail := func(err error) {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, fmt.Sprintf("pass %d: %v", p, err))
		}
	}
	c0 := threadCPU()
	if err := ps.setup(); err != nil {
		return err
	}
	ph.setupCPU = append(ph.setupCPU, float64(threadCPU()-c0))
	_, _, gcCPU0, gcCyc0 := readRuntime(samples)
	var passCPU float64
	for {
		b0, o0, _, _ := readRuntime(samples)
		p0 := processCPU()
		c0 := threadCPU()
		start := time.Now()
		ok, err := ps.op()
		d := float64(time.Since(start))
		c := float64(threadCPU() - c0)
		pc := float64(processCPU() - p0)
		b1, o1, _, _ := readRuntime(samples)
		if !ok {
			if err != nil {
				ph.attempted++
				fail(err)
			}
			break
		}
		ph.attempted++
		ph.opNs = append(ph.opNs, d)
		ph.opCPU = append(ph.opCPU, c)
		ph.procCPU += pc
		passCPU += c
		ph.allocBytes += b1 - b0
		ph.allocObjects += o1 - o0
		if err != nil {
			fail(err)
			continue
		}
		if err := ps.check(); err != nil {
			fail(err)
		}
	}
	_, _, gcCPU1, gcCyc1 := readRuntime(samples)
	ph.gcCPU += gcCPU1 - gcCPU0
	ph.gcCycles += gcCyc1 - gcCyc0
	out, err := ps.end()
	if err != nil {
		// A failed pass-level check fails the pass's last op.
		fail(err)
	}
	for _, h := range out.inputs {
		ph.inputs++
		if ph.seen[h] {
			ph.repeats++
		}
		ph.seen[h] = true
	}
	ph.quality.imbalance += out.imbalance
	ph.quality.tokensPerSec += out.tokensPerSec
	ph.quality.missRate += out.missRate
	ph.digests = append(ph.digests, out.sum())
	ph.passCPU = append(ph.passCPU, passCPU)
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase) map[string]metric {
	cpu := sorted(ph.opCPU)
	ops := float64(len(cpu))
	tailNs, _ := tailAt(cpu, tailPercentile(len(cpu)))
	return map[string]metric{
		"setup_s":         {median(ph.setupCPU) / 1e9, "s"},
		"ops_per_cpu_s":   {ops / (ph.procCPU / 1e9), "1/s"},
		"op_cpu_p50_ms":   {nearestRank(cpu, 50) / 1e6, "ms"},
		"op_cpu_tail_ms":  {tailNs / 1e6, "ms"},
		"alloc_mb_per_op": {float64(ph.allocBytes) / ops / 1e6, "MB"},
		"sim_imbalance":   {ph.quality.imbalance, "ratio"},
	}
}

// wallMetrics are the wall-clock counterparts of the CPU-time metrics.
func wallMetrics(ph *phase) map[string]metric {
	wall := sorted(ph.opNs)
	var total float64
	for _, d := range wall {
		total += d
	}
	tailNs, _ := tailAt(wall, tailPercentile(len(wall)))
	return map[string]metric{
		"wall.ops_per_s":  {float64(len(wall)) / (total / 1e9), "1/s"},
		"wall.op_p50_ms":  {nearestRank(wall, 50) / 1e6, "ms"},
		"wall.op_tail_ms": {tailNs / 1e6, "ms"},
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// perLayer computes the per-layer metrics from an untraced phase and the
// traced phase that followed it on the same inputs.
func perLayer(plain, traced *phase, t *tracer) map[string]metric {
	ops := float64(len(traced.opNs))
	t.fold()
	get := func(name string) *spanTotals {
		if s := t.totals[name]; s != nil {
			return s
		}
		return &spanTotals{}
	}
	ms := func(name string) metric { return metric{float64(get(name).dur) / ops / 1e6, "ms"} }
	kb := func(name string) metric { return metric{float64(get(name).alloc) / ops / 1e3, "kB"} }
	per := func(name, unit string) metric { return metric{t.counts[name] / ops, unit} }
	share := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{num / den, "ratio"}
	}
	nsPerTask := 0.0
	if tasks := t.counts["sim.tasks"]; tasks > 0 {
		nsPerTask = float64(get("sim.run").dur) / tasks
	}
	passes := float64(len(traced.digests))
	pOps := float64(len(plain.opNs))
	// Both phases ran the same passes, op for op.
	var plainNs, tracedNs float64
	for i := range traced.passCPU {
		plainNs += plain.passCPU[i]
		tracedNs += traced.passCPU[i]
	}
	out := wallMetrics(plain)
	for k, v := range map[string]metric{
		"sim.run_ms":                  ms("sim.run"),
		"sim.tasks":                   per("sim.tasks", "count"),
		"sim.resources":               per("sim.resources", "count"),
		"sim.ns_per_task":             {nsPerTask, "ns"},
		"sim.run_alloc_kb":            kb("sim.run"),
		"attention.emit_ms":           ms("attention.emit"),
		"attention.emit_alloc_kb":     kb("attention.emit"),
		"remap.emit_ms":               ms("remap.emit"),
		"trainer.emit_linear_ms":      ms("trainer.emit_linear"),
		"trainer.env_ms":              ms("trainer.env"),
		"campaign.pre_plan_ms":        ms("campaign.pre_plan"),
		"zeppelin.plan_ms":            ms("zeppelin.plan"),
		"zeppelin.plan_alloc_kb":      kb("zeppelin.plan"),
		"partition.plan_ms":           {t.counts["partition.plan_ns"] / ops / 1e6, "ms"},
		"partition.rings":             per("partition.rings", "count"),
		"remap.solve_ms":              {t.counts["remap.solve_ns"] / ops / 1e6, "ms"},
		"remap.transfers":             per("remap.transfers", "count"),
		"workload.batch_ms":           ms("workload.batch"),
		"workload.seqs":               per("workload.seqs", "count"),
		"workload.timeline_ms":        {t.counts["workload.timeline_ns"] / passes / 1e6, "ms"},
		"campaign.post_sim_ms":        ms("campaign.post_sim"),
		"campaign.self_ms":            {float64(get("campaign.next").self) / ops / 1e6, "ms"},
		"pkg.encode_ms":               ms("pkg.encode"),
		"pkg.encode_bytes":            per("pkg.encode_bytes", "bytes"),
		"runtime.gc_cpu_ms":           {plain.gcCPU * 1e3 / pOps, "ms"},
		"runtime.gc_cycles_per_kop":   {plain.gcCycles * 1e3 / pOps, "count"},
		"runtime.alloc_objects":       {float64(plain.allocObjects) / pOps, "count"},
		"partition.ring_op_share":     share(t.counts["partition.ring_ops"], ops),
		"partition.over_budget_share": share(t.counts["partition.over_budget_ops"], ops),
		"campaign.replan_share":       share(t.counts["campaign.replans"], ops),
		"campaign.affinity_hit_share": share(t.counts["campaign.affinity_hits"], t.counts["campaign.requests"]),
		"bench.repeat_batch_share":    share(float64(plain.repeats), float64(plain.inputs)),
		"bench.trace_overhead_pct":    {100 * (tracedNs - plainNs) / plainNs, "%"},
		"bench.unattributed_ms":       {float64(get("op").self) / ops / 1e6, "ms"},
		"quality.sim_tokens_per_s":    {plain.quality.tokensPerSec, "tokens/s"},
		"quality.sim_slo_miss_rate":   {plain.quality.missRate, "ratio"},
		"runtime.peak_rss_mb":         {peakRSSMB(), "MB"},
	} {
		out[k] = v
	}
	return out
}

func main() {
	// Ops run on this goroutine; pinning it to one thread makes the
	// thread's CPU clock the ops' CPU clock.
	runtime.LockOSThread()
	name := flag.String("workload", "", "workload: train-prolong, plan-4k or serve-burst")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (%d is the held-out seed for checking claims)", holdoutSeed))
	seconds := flag.Int("seconds", 30, "run length: a fixed number of passes taking about this many seconds untraced")
	traceMode := flag.Int("trace", 0, "1 runs every pass untraced and then traced, and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: zbench --workload train-prolong|plan-4k|serve-burst [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	if err := run(*name, w, *seed, w.passCount(*seconds, *traceMode == 1), *traceMode == 1); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
}

func run(name string, w benchWorkload, seed int64, passes int, traced bool) error {
	fmt.Printf("workload %s: seed %d, closed loop, 1 client, %d passes, trace %v\n", name, seed, passes, traced)
	res := result{Correct: true}
	var plain *phase
	if !traced {
		phases, err := runPasses(w.newPass, seed, passes, []*tracer{nil})
		if err != nil {
			return err
		}
		plain = phases[0]
		res.Metrics = endToEnd(plain)
	} else {
		t := newTracer()
		phases, err := runPasses(w.newPass, seed, passes, []*tracer{nil, t})
		if err != nil {
			return err
		}
		plain = phases[0]
		tr := phases[1]
		res.Metrics = perLayer(plain, tr, t)
		for i := range tr.digests {
			if plain.digests[i] != tr.digests[i] {
				res.Correct = false
				fmt.Printf("traced pass %d digest %016x != untraced %016x\n", i, tr.digests[i], plain.digests[i])
			}
		}
		fmt.Printf("traced run outputs identical to the untraced run: %v\n", res.Correct)
		res.Attempted, res.Failed = tr.attempted, tr.failed
		report("traced", tr)
	}
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	report("untraced", plain)
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// report prints a phase's run shape, tail percentile and its sample
// count, wall-clock times, simulated quality and output digest.
func report(label string, ph *phase) {
	cpu := sorted(ph.opCPU)
	tailP := tailPercentile(len(cpu))
	v, beyond := tailAt(cpu, tailP)
	fmt.Printf("%s: %d passes, %d ops; op CPU tail p%g = %.4g ms with %d samples beyond it\n", label, len(ph.digests), len(cpu), tailP, v/1e6, beyond)
	wall := wallMetrics(ph)
	fmt.Printf("wall clock: %.6g ops/s, op p50 %.4g ms, op tail p%g %.4g ms\n",
		wall["wall.ops_per_s"].Value, wall["wall.op_p50_ms"].Value, tailP, wall["wall.op_tail_ms"].Value)
	fmt.Printf("simulated quality of the %d passes: imbalance %.6g, tokens/s %.6g, SLO miss rate %.6g\n",
		len(ph.digests), ph.quality.imbalance, ph.quality.tokensPerSec, ph.quality.missRate)
	fmt.Printf("pass 0 output digest %016x\n", ph.digests[0])
	for _, e := range ph.errs {
		fmt.Println("check failed:", e)
	}
}
