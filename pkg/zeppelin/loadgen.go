package zeppelin

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"zeppelin/internal/benchfmt"
	"zeppelin/internal/promtext"
)

// LoadConfig shapes one zeppelin-loadgen run: paced POST /v1/plan
// traffic plus concurrent NDJSON campaign streams against one or more
// zeppelind replicas.
type LoadConfig struct {
	// Addrs are the zeppelind base URLs (e.g. "http://10.0.0.1:8080");
	// requests and campaign streams round-robin across them.
	Addrs []string
	// Duration bounds the plan-traffic phase.
	Duration time.Duration
	// PlanRPS is the offered POST /v1/plan rate summed across replicas;
	// 0 sends no plan traffic.
	PlanRPS float64
	// PlanConcurrency bounds in-flight plan requests; when the pool is
	// saturated at a tick the request is shed client-side and counted in
	// PlanShed rather than queued (queueing would hide server latency).
	// Defaults to 4×GOMAXPROCS.
	PlanConcurrency int
	// Plan is the request every plan POST carries. The zero value is
	// filled with the 7B/arxiv defaults at validation time; responses to
	// the identical requests are checked for byte-identity in
	// UniquePlanBodies.
	Plan PlanRequest
	// Campaigns is how many concurrent campaign sessions to stream; each
	// runs CampaignIters iterations with its stream index as the seed.
	Campaigns int
	// CampaignIters is the horizon per campaign stream (default 10).
	CampaignIters int
	// Client overrides the HTTP client (tests inject one; nil uses a
	// dedicated client with sane timeouts).
	Client *http.Client
}

// LatencySummary is a latency distribution in milliseconds.
type LatencySummary struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// P999Ms is the p99.9 tail, surfaced in text and benchfmt output only
	// when the target exposes /metrics (observability-aware runs).
	P999Ms float64 `json:"p999_ms,omitempty"`
	MaxMs  float64 `json:"max_ms"`
}

// LoadReport is the artifact of one load run: goodput, latency
// distribution, and the overload/error accounting for both traffic
// kinds.
type LoadReport struct {
	Addrs       []string `json:"addrs"`
	DurationSec float64  `json:"duration_sec"`

	// Plan traffic: offered vs admitted vs shed, with only 2xx responses
	// counting toward goodput.
	PlanRequests    int            `json:"plan_requests"`
	PlanOK          int            `json:"plan_ok"`
	PlanRateLimited int            `json:"plan_rate_limited"`
	PlanErrors      int            `json:"plan_errors"`
	PlanShed        int            `json:"plan_shed"`
	PlansPerSec     float64        `json:"plans_per_sec"`
	PlanLatency     LatencySummary `json:"plan_latency"`
	// UniquePlanBodies counts distinct response byte strings among the
	// admitted plans. Every request in a run is identical, so any value
	// above 1 is a determinism violation — cache state or replica choice
	// leaked into a response.
	UniquePlanBodies int `json:"unique_plan_bodies"`

	// Campaign traffic.
	CampaignStreams     int `json:"campaign_streams"`
	CampaignEvents      int `json:"campaign_events"`
	CampaignRateLimited int `json:"campaign_rate_limited"`
	CampaignErrors      int `json:"campaign_errors"`

	// MetricsScraped reports that every replica exposed a parseable
	// GET /metrics before and after the run; the fields below are only
	// populated then. Targets without the endpoint degrade silently —
	// the rest of the report is unchanged.
	MetricsScraped bool `json:"metrics_scraped,omitempty"`
	// DecisionsPerSec is the fleet-wide campaign decision rate over the
	// run (delta of zeppelind_decisions_total across the scrapes).
	DecisionsPerSec float64 `json:"decisions_per_sec,omitempty"`
	// AdmissionSaturation is each class's post-run token-bucket
	// saturation (1 = exhausted, 0 = idle) from the final scrape.
	AdmissionSaturation map[string]float64 `json:"admission_saturation,omitempty"`
}

func (c *LoadConfig) validate() error {
	if len(c.Addrs) == 0 {
		return fmt.Errorf("zeppelin: loadgen needs at least one replica address")
	}
	if c.PlanRPS < 0 {
		return fmt.Errorf("zeppelin: plan RPS must be >= 0, got %v", c.PlanRPS)
	}
	if c.Campaigns < 0 {
		return fmt.Errorf("zeppelin: campaigns must be >= 0, got %d", c.Campaigns)
	}
	if c.PlanRPS == 0 && c.Campaigns == 0 {
		return fmt.Errorf("zeppelin: loadgen needs plan traffic, campaign streams, or both")
	}
	if c.PlanRPS > 0 && c.Duration <= 0 {
		return fmt.Errorf("zeppelin: plan traffic needs a positive duration, got %v", c.Duration)
	}
	if c.PlanConcurrency <= 0 {
		c.PlanConcurrency = 4 * runtime.GOMAXPROCS(0)
	}
	if c.CampaignIters <= 0 {
		c.CampaignIters = 10
	}
	if c.Plan == (PlanRequest{}) {
		c.Plan = PlanRequest{Model: "7B", Dataset: "arxiv", Seed: 42}
	}
	return nil
}

// loadCollector accumulates results from the request goroutines.
type loadCollector struct {
	mu        sync.Mutex
	report    LoadReport
	latencies []float64 // ms
	bodies    map[uint64]struct{}
}

func (c *loadCollector) plan(status int, body []byte, latency time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report.PlanRequests++
	switch {
	case err != nil:
		c.report.PlanErrors++
	case status == http.StatusOK:
		c.report.PlanOK++
		c.latencies = append(c.latencies, float64(latency)/float64(time.Millisecond))
		h := fnv.New64a()
		h.Write(body) //nolint:errcheck // fnv never errors
		c.bodies[h.Sum64()] = struct{}{}
	case status == http.StatusTooManyRequests:
		c.report.PlanRateLimited++
	default:
		c.report.PlanErrors++
	}
}

// percentile is nearest-rank over a sorted slice: the smallest element
// with at least q of the sample at or below it, rank ⌈q·N⌉ clamped to
// [1, N]. Truncating q·(N-1) instead (the previous behavior) biased
// every tail statistic low — with 100 samples it reported p99.9 as the
// 99th element, never the max a 100-sample p99.9 must clamp to.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// RunLoad drives the configured load against the replicas and returns
// the aggregated report. Plan traffic is paced at PlanRPS for Duration;
// campaign streams run their full horizon concurrently. Cancelling ctx
// stops the run early and returns ctx.Err().
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	col := &loadCollector{bodies: make(map[uint64]struct{})}
	col.report.Addrs = append([]string(nil), cfg.Addrs...)

	planBody, err := json.Marshal(cfg.Plan)
	if err != nil {
		return nil, err
	}

	// Metrics-aware runs: snapshot each replica's /metrics before the
	// traffic starts. Replicas without the endpoint (older daemons, test
	// stubs) degrade silently — the report simply omits the scrape-backed
	// fields and the rest of the output is unchanged.
	before, scraped := scrapeFleetMetrics(ctx, client, cfg.Addrs)

	start := time.Now()
	var wg sync.WaitGroup

	// Campaign streams: each creates a session on its round-robin
	// replica and drains the full NDJSON horizon.
	for i := 0; i < cfg.Campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := cfg.Addrs[i%len(cfg.Addrs)]
			events, status, err := streamCampaign(ctx, client, addr, CampaignRequest{
				Iters: cfg.CampaignIters,
				Seed:  int64(i),
			})
			col.mu.Lock()
			defer col.mu.Unlock()
			col.report.CampaignStreams++
			col.report.CampaignEvents += events
			switch {
			case err == nil:
			case status == http.StatusTooManyRequests:
				col.report.CampaignRateLimited++
			default:
				col.report.CampaignErrors++
			}
		}(i)
	}

	// Plan traffic: a ticker paces the offered rate; a semaphore bounds
	// in-flight requests so a slow replica sheds load client-side
	// instead of queueing unbounded goroutines.
	if cfg.PlanRPS > 0 {
		sem := make(chan struct{}, cfg.PlanConcurrency)
		interval := time.Duration(float64(time.Second) / cfg.PlanRPS)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		ticker := time.NewTicker(interval)
		deadline := time.After(cfg.Duration)
		n := 0
	pace:
		for {
			select {
			case <-ctx.Done():
				break pace
			case <-deadline:
				break pace
			case <-ticker.C:
				select {
				case sem <- struct{}{}:
				default:
					col.mu.Lock()
					col.report.PlanShed++
					col.mu.Unlock()
					continue
				}
				addr := cfg.Addrs[n%len(cfg.Addrs)]
				n++
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					t0 := time.Now()
					status, body, err := postOnce(ctx, client, addr+"/v1/plan", planBody)
					col.plan(status, body, time.Since(t0), err)
				}()
			}
		}
		ticker.Stop()
	}

	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var after promtext.Metrics
	if scraped {
		after, scraped = scrapeFleetMetrics(ctx, client, cfg.Addrs)
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	rep := col.report
	rep.DurationSec = time.Since(start).Seconds()
	rep.UniquePlanBodies = len(col.bodies)
	if rep.DurationSec > 0 {
		rep.PlansPerSec = float64(rep.PlanOK) / rep.DurationSec
	}
	sort.Float64s(col.latencies)
	rep.PlanLatency = LatencySummary{
		Count:  len(col.latencies),
		P50Ms:  percentile(col.latencies, 0.50),
		P95Ms:  percentile(col.latencies, 0.95),
		P99Ms:  percentile(col.latencies, 0.99),
		P999Ms: percentile(col.latencies, 0.999),
	}
	if n := len(col.latencies); n > 0 {
		rep.PlanLatency.MaxMs = col.latencies[n-1]
	}
	if scraped {
		rep.MetricsScraped = true
		if delta := after.Sum("zeppelind_decisions_total") - before.Sum("zeppelind_decisions_total"); delta > 0 && rep.DurationSec > 0 {
			rep.DecisionsPerSec = delta / rep.DurationSec
		}
		if sat := after.ByLabel("zeppelind_admission_bucket_saturation", "class"); len(sat) > 0 {
			rep.AdmissionSaturation = sat
		}
	}
	return &rep, nil
}

// scrapeFleetMetrics GETs /metrics from every replica and concatenates
// the parsed samples. ok is false — and the samples nil — as soon as any
// replica lacks the endpoint or serves something unparseable; loadgen
// treats the whole fleet as metrics-blind rather than reporting rates
// computed over a partial scrape.
func scrapeFleetMetrics(ctx context.Context, client *http.Client, addrs []string) (promtext.Metrics, bool) {
	var all promtext.Metrics
	for _, addr := range addrs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
		if err != nil {
			return nil, false
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, false
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, false
		}
		ms, err := promtext.Parse(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, false
		}
		all = append(all, ms...)
	}
	return all, true
}

// postOnce fires one JSON POST and returns status and body.
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// streamCampaign creates one session and drains its event stream,
// returning the number of events received. A non-2xx at either step
// returns that status with a descriptive error.
func streamCampaign(ctx context.Context, client *http.Client, addr string, req CampaignRequest) (events, status int, err error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	status, body, err := postOnce(ctx, client, addr+"/v1/campaigns", raw)
	if err != nil {
		return 0, status, err
	}
	if status != http.StatusCreated {
		return 0, status, fmt.Errorf("create campaign: status %d: %s", status, body)
	}
	var created struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		return 0, status, err
	}
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+created.EventsURL, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(get)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, resp.StatusCode, fmt.Errorf("events stream: status %d: %s", resp.StatusCode, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return events, resp.StatusCode, err
	}
	if events != req.Iters {
		return events, resp.StatusCode, fmt.Errorf("stream delivered %d of %d events", events, req.Iters)
	}
	return events, resp.StatusCode, nil
}

// Benchfmt renders the report in the shared benchmark-artifact schema
// so cmd/benchgate can gate the headline number in CI. The
// BenchmarkLoadgenPlan series encodes goodput as ns/plan (1e9 divided
// by plans/sec): a throughput drop shows up as an ns/op regression,
// exactly what benchgate's threshold compares.
func (r *LoadReport) Benchfmt() *benchfmt.File {
	f := &benchfmt.File{Source: "zeppelin-loadgen", Goos: runtime.GOOS, Goarch: runtime.GOARCH}
	if r.PlansPerSec > 0 {
		metrics := map[string]float64{
			"plans-per-sec": r.PlansPerSec,
			"p50-ms":        r.PlanLatency.P50Ms,
			"p95-ms":        r.PlanLatency.P95Ms,
			"p99-ms":        r.PlanLatency.P99Ms,
			"rate-limited":  float64(r.PlanRateLimited),
			"errors":        float64(r.PlanErrors),
			"unique-bodies": float64(r.UniquePlanBodies),
		}
		// Scrape-backed keys appear only on metrics-aware runs so the
		// artifact schema stays stable against metrics-blind targets.
		if r.MetricsScraped {
			metrics["p999-ms"] = r.PlanLatency.P999Ms
			metrics["decisions-per-sec"] = r.DecisionsPerSec
		}
		f.Results = append(f.Results, benchfmt.Result{
			Name:    "BenchmarkLoadgenPlan",
			Samples: 1,
			Iters:   r.PlanOK,
			NsPerOp: 1e9 / r.PlansPerSec,
			Metrics: metrics,
		})
	}
	if r.CampaignStreams > 0 && r.DurationSec > 0 {
		eps := float64(r.CampaignEvents) / r.DurationSec
		res := benchfmt.Result{
			Name:    "BenchmarkLoadgenCampaignEvents",
			Samples: 1,
			Iters:   r.CampaignEvents,
			Metrics: map[string]float64{
				"events-per-sec": eps,
				"streams":        float64(r.CampaignStreams),
				"rate-limited":   float64(r.CampaignRateLimited),
				"errors":         float64(r.CampaignErrors),
			},
		}
		if eps > 0 {
			res.NsPerOp = 1e9 / eps
		}
		f.Results = append(f.Results, res)
	}
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
	return f
}

// WriteJSON emits the report itself (not the benchfmt artifact).
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human summary.
func (r *LoadReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "loadgen: %d replica(s), %.1fs\n", len(r.Addrs), r.DurationSec)
	if r.PlanRequests > 0 || r.PlanShed > 0 {
		fmt.Fprintf(w, "plan:     %d sent, %d ok (%.1f plans/sec), %d rate-limited, %d errors, %d shed\n",
			r.PlanRequests, r.PlanOK, r.PlansPerSec, r.PlanRateLimited, r.PlanErrors, r.PlanShed)
		if r.MetricsScraped {
			fmt.Fprintf(w, "latency:  p50 %.2fms  p95 %.2fms  p99 %.2fms  p99.9 %.2fms  max %.2fms\n",
				r.PlanLatency.P50Ms, r.PlanLatency.P95Ms, r.PlanLatency.P99Ms, r.PlanLatency.P999Ms, r.PlanLatency.MaxMs)
		} else {
			fmt.Fprintf(w, "latency:  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
				r.PlanLatency.P50Ms, r.PlanLatency.P95Ms, r.PlanLatency.P99Ms, r.PlanLatency.MaxMs)
		}
		fmt.Fprintf(w, "identity: %d unique plan bodies across %d admitted plans\n",
			r.UniquePlanBodies, r.PlanOK)
	}
	if r.CampaignStreams > 0 {
		fmt.Fprintf(w, "campaign: %d streams, %d events, %d rate-limited, %d errors\n",
			r.CampaignStreams, r.CampaignEvents, r.CampaignRateLimited, r.CampaignErrors)
	}
	if r.MetricsScraped {
		fmt.Fprintf(w, "metrics:  %.1f decisions/sec", r.DecisionsPerSec)
		if len(r.AdmissionSaturation) > 0 {
			classes := make([]string, 0, len(r.AdmissionSaturation))
			for c := range r.AdmissionSaturation {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			fmt.Fprintf(w, ", bucket saturation")
			for _, c := range classes {
				fmt.Fprintf(w, " %s=%.2f", c, r.AdmissionSaturation[c])
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
