package service

// Tests for the observability layer at the service boundary: the /metrics
// Prometheus page, per-request trace trees on /debug/traces, W3C
// traceparent echo and client propagation, slow-request logging, and the
// unified accounting between access logs and counters on degraded answers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"torusnet/internal/failpoint"
	"torusnet/internal/obs"
)

// promSampleRe matches one Prometheus text-format sample line.
var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsPrometheusFormat drives a request through the server, fetches
// /metrics, and validates the exposition format line by line plus the
// presence and consistency of the key families.
func TestMetricsPrometheusFormat(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	ctx := context.Background()

	if _, err := c.Analyze(ctx, AnalyzeRequest{K: 5, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}

	text := string(body)
	samples := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("line %d is not valid Prometheus text format: %q", i+1, line)
		}
		samples[line[:strings.LastIndexByte(line, ' ')]] = line[strings.LastIndexByte(line, ' ')+1:]
	}

	for _, want := range []string{
		"torusd_requests_total", "torusd_cache_misses_total", "torusd_in_flight",
		"torusd_pool_running", "torusd_pool_queued", "torusd_degraded_inline_running",
		"torusd_request_duration_seconds_count", "torusd_pool_queue_wait_seconds_count",
		"torusd_cache_age_seconds_count", "torusd_degraded_error_bound_count",
		"torusd_uptime_seconds",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	if v := samples["torusd_requests_total"]; v == "0" {
		t.Errorf("torusd_requests_total = %s after a request", v)
	}
	// Histogram consistency: the +Inf bucket must equal the count.
	if inf, cnt := samples[`torusd_request_duration_seconds_bucket{le="+Inf"}`],
		samples["torusd_request_duration_seconds_count"]; inf != cnt {
		t.Errorf("request duration +Inf bucket %s != count %s", inf, cnt)
	}
	// The gated routing-kernel counters are registered process-globally and
	// must render even with the gate off.
	if !strings.Contains(text, "torusnet_routing_odr_pairs_total") {
		t.Error("gated obs counters missing from /metrics")
	}
}

// TestTraceHasPipelineStages asserts one uncached /v1/analyze request
// exports a well-formed trace whose span tree names every pipeline stage —
// the acceptance criterion asks for at least five.
func TestTraceHasPipelineStages(t *testing.T) {
	tracer := obs.NewTracer(8)
	s, c, stop := newTestServer(t, Config{Workers: 2, Tracer: tracer})
	defer stop()

	if _, err := c.Analyze(context.Background(), AnalyzeRequest{K: 6, D: 2, Placement: "linear", Routing: "ODR"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	_ = s

	traces := tracer.Snapshot(0)
	if len(traces) == 0 {
		t.Fatal("no traces exported")
	}
	var tr *obs.Trace
	for i := range traces {
		for _, sp := range traces[i].Spans {
			if sp.Name == "core.analyze" {
				tr = &traces[i]
			}
		}
	}
	if tr == nil {
		t.Fatalf("no trace contains core.analyze; got %d traces", len(traces))
	}
	if err := tr.Wellformed(); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{
		"http.request", "cache.get", "flight.do", "pool.submit", "pool.run",
		"core.analyze", "load.compute", "load.fold", "core.bounds",
	} {
		if !names[want] {
			t.Errorf("span %q missing from trace; have %v", want, names)
		}
	}
	if len(names) < 5 {
		t.Errorf("trace has %d named stages, want >= 5", len(names))
	}
}

// TestTraceparentEchoAndSeeding checks that an incoming traceparent is
// honored — the response echoes the same trace ID and the exported trace
// carries it — and that without one the server mints a fresh valid ID.
func TestTraceparentEchoAndSeeding(t *testing.T) {
	tracer := obs.NewTracer(8)
	s, _, stop := newTestServer(t, Config{Workers: 2, Tracer: tracer})
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const inID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, "00-"+inID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	gotID, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok || gotID != inID {
		t.Errorf("response traceparent = %q (ok=%v), want trace ID %s",
			resp.Header.Get(obs.TraceparentHeader), ok, inID)
	}
	found := false
	for _, tr := range tracer.Snapshot(0) {
		if tr.TraceID == inID {
			found = true
			if err := tr.Wellformed(); err != nil {
				t.Errorf("seeded trace: %v", err)
			}
		}
	}
	if !found {
		t.Error("no exported trace carries the incoming trace ID")
	}

	// No incoming header: the response still carries a valid fresh ID.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if cerr := resp2.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if id, ok := obs.ParseTraceparent(resp2.Header.Get(obs.TraceparentHeader)); !ok || id == inID {
		t.Errorf("unseeded response traceparent = %q, want fresh valid ID",
			resp2.Header.Get(obs.TraceparentHeader))
	}
}

// TestClientPropagatesTraceparent asserts the typed client forwards the
// context's trace ID, and that the resilient client keeps the trace ID
// stable across retries while rotating span IDs per attempt.
func TestClientPropagatesTraceparent(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(obs.TraceparentHeader))
		n := attempts
		attempts++
		mu.Unlock()
		if n == 0 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(HealthResponse{Status: "ok"}); err != nil {
			t.Errorf("encode: %v", err)
		}
	}))
	defer ts.Close()

	tracer := obs.NewTracer(4)
	ctx, root := tracer.Root(context.Background(), "test.call", "")
	defer root.End()
	traceID := obs.TraceIDFromContext(ctx)

	c := NewResilientClient(ts.URL, ResilienceConfig{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, JitterSeed: 1,
	})
	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(seen))
	}
	spans := map[string]bool{}
	for i, h := range seen {
		id, ok := obs.ParseTraceparent(h)
		if !ok || id != traceID {
			t.Errorf("attempt %d traceparent = %q, want trace ID %s", i, h, traceID)
			continue
		}
		spans[strings.Split(h, "-")[2]] = true
	}
	if len(spans) != 2 {
		t.Errorf("attempts shared a span ID: %v", seen)
	}
}

// TestSlowRequestLogging asserts requests over SlowThreshold are logged at
// warn level with slow=true and counted in the slow-request counter.
func TestSlowRequestLogging(t *testing.T) {
	var logBuf syncBuffer
	s, c, stop := newTestServer(t, Config{
		Workers: 2, AccessLog: &logBuf, SlowThreshold: time.Nanosecond,
	})
	defer stop()

	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	line := logBuf.String()
	for _, want := range []string{`"level":"WARN"`, `"slow":true`, `"trace":"`} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line lacks %s: %s", want, line)
		}
	}
	if got := s.metrics.get(mSlow); got < 1 {
		t.Errorf("slow counter = %d, want >= 1", got)
	}
}

// TestDegradedAccountingUnified is the regression test for the accounting
// bug: degraded answers are computed inline on the handler goroutine, so
// they must count as cache misses like any other compute, be visible to
// logs and headers as degraded, and never move the pool gauges (no pool
// job exists).
func TestDegradedAccountingUnified(t *testing.T) {
	var logBuf syncBuffer
	tracer := obs.NewTracer(8)
	s, _, stop := newTestServer(t, Config{
		Workers: 2, DegradeWatermark: -1, AccessLog: &logBuf, Tracer: tracer,
	})
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := failpoint.Enable("service.admission", "error"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := failpoint.Disable("service.admission"); err != nil {
			t.Fatal(err)
		}
	}()

	misses, hits := s.metrics.get(mCacheMisses), s.metrics.get(mCacheHits)
	body := `{"k":6,"d":2,"placement":"linear","routing":"ODR"}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ar AnalyzeResponse
	if derr := json.NewDecoder(resp.Body).Decode(&ar); derr != nil {
		t.Fatalf("decode: %v", derr)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !ar.Degraded {
		t.Fatalf("response not degraded: %+v", ar)
	}
	if got := resp.Header.Get(degradedHeader); got != "true" {
		t.Errorf("%s header = %q, want true", degradedHeader, got)
	}
	if got := s.metrics.get(mCacheMisses); got != misses+1 {
		t.Errorf("cache_misses moved %d→%d, want +1 on a degraded miss", misses, got)
	}
	if got := s.metrics.get(mCacheHits); got != hits {
		t.Errorf("cache_hits moved %d→%d on a degraded miss", hits, got)
	}
	if got := s.metrics.get(mDegraded); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	if r, q := s.pool.running.Load(), s.pool.queued.Load(); r != 0 || q != 0 {
		t.Errorf("pool gauges running=%d queued=%d after inline degraded answer, want 0/0", r, q)
	}
	if got := s.inlineRunning.Load(); got != 0 {
		t.Errorf("inline gauge = %d after response, want 0", got)
	}
	if snap := s.metrics.degradedErr.Snapshot(); snap.Count != 1 {
		t.Errorf("degraded error-bound histogram count = %d, want 1", snap.Count)
	}
	if line := logBuf.String(); !strings.Contains(line, `"degraded":true`) {
		t.Errorf("access log lacks degraded:true: %s", line)
	}
	found := false
	for _, tr := range tracer.Snapshot(0) {
		for _, sp := range tr.Spans {
			if sp.Name == "compute.degraded" {
				found = true
			}
		}
		if err := tr.Wellformed(); err != nil {
			t.Errorf("degraded trace: %v", err)
		}
	}
	if !found {
		t.Error("no exported trace records compute.degraded")
	}
}

// TestHistogramBucketCumulative renders one histogram through the full
// /metrics path and checks cumulative bucket monotonicity.
func TestHistogramBucketCumulative(t *testing.T) {
	s, c, stop := newTestServer(t, Config{Workers: 2})
	defer stop()
	for i := 0; i < 3; i++ {
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "torusd_request_duration_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
		n++
	}
	if n == 0 {
		t.Fatal("no request-duration bucket lines")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for access logs written from
// handler goroutines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
