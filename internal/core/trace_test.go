package core

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/telemetry"
)

// traceEcho registers a method that reports its dispatch's trace/span
// identity.
func traceEcho(t *testing.T, s *Server) {
	t.Helper()
	registerTest(t, s, Method{
		Name: "t.trace", Help: "reports trace identity", Signature: []string{"struct"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) {
			return map[string]any{
				"trace":       ctx.TraceID(),
				"span":        ctx.SpanID(),
				"parent_span": ctx.ParentSpanID(),
			}, nil
		},
	})
}

func TestTraceAdoptsHeaderOrMints(t *testing.T) {
	s := newTestServer(t)
	traceEcho(t, s)

	// A valid inbound header is adopted verbatim.
	resp := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "req-abc.123"}, "t.trace")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	got := resp.Result.(map[string]any)
	if got["trace"] != "req-abc.123" {
		t.Errorf("trace = %q, want the inbound header", got["trace"])
	}
	if got["span"] == "" {
		t.Error("no span minted")
	}
	if got["parent_span"] != "" {
		t.Errorf("root dispatch has parent_span %q", got["parent_span"])
	}

	// No header: a fresh trace is minted per dispatch.
	r1 := call(t, s, xmlrpc.New(), nil, "t.trace").Result.(map[string]any)
	r2 := call(t, s, xmlrpc.New(), nil, "t.trace").Result.(map[string]any)
	if r1["trace"] == "" || r2["trace"] == "" {
		t.Fatalf("minted traces empty: %v %v", r1, r2)
	}
	if r1["trace"] == r2["trace"] {
		t.Errorf("two dispatches share minted trace %q", r1["trace"])
	}

	// An invalid header (illegal characters) is replaced, not adopted.
	resp = call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "bad trace!"}, "t.trace")
	if tr := resp.Result.(map[string]any)["trace"]; tr == "bad trace!" || tr == "" {
		t.Errorf("invalid header handling: trace = %q", tr)
	}
}

func TestSubCallInheritsTraceAsChildSpan(t *testing.T) {
	s := newTestServer(t)
	registerTest(t, s,
		Method{
			Name: "t.trace", Help: "reports trace identity", Signature: []string{"struct"}, Public: true,
			Handler: func(ctx *Context, p Params) (any, error) {
				return map[string]any{
					"trace":       ctx.TraceID(),
					"span":        ctx.SpanID(),
					"parent_span": ctx.ParentSpanID(),
				}, nil
			},
		},
		Method{
			Name: "t.parent", Help: "invokes t.trace as a sub-call", Signature: []string{"struct"}, Public: true,
			Handler: func(ctx *Context, p Params) (any, error) {
				sub, err := s.invoke(ctx, rpc.SubCall{Method: "t.trace"})
				if err != nil {
					return nil, err
				}
				m := sub.(map[string]any)
				m["outer_trace"] = ctx.TraceID()
				m["outer_span"] = ctx.SpanID()
				return m, nil
			},
		})

	resp := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "parent-trace-1"}, "t.parent")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	m := resp.Result.(map[string]any)
	if m["trace"] != "parent-trace-1" || m["outer_trace"] != "parent-trace-1" {
		t.Errorf("sub-call trace = %v, outer = %v, want both parent-trace-1", m["trace"], m["outer_trace"])
	}
	if m["span"] == m["outer_span"] {
		t.Error("sub-call did not get its own span")
	}
	if m["parent_span"] != m["outer_span"] {
		t.Errorf("sub-call parent_span = %v, want the enclosing span %v", m["parent_span"], m["outer_span"])
	}
}

func TestMulticallSubCallTraceOverride(t *testing.T) {
	s := newTestServer(t)
	traceEcho(t, s)
	params := rpc.MulticallParams([]rpc.SubCall{
		{Method: "t.trace", Params: []any{}, Trace: "job-trace-42"},
		{Method: "t.trace", Params: []any{}},
	})
	resp := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "batch-trace"}, rpc.MulticallMethod, params...)
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	results, err := rpc.ParseMulticallResults(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	if tr := results[0].Result.(map[string]any)["trace"]; tr != "job-trace-42" {
		t.Errorf("sub-call 0 trace = %v, want its own job-trace-42", tr)
	}
	if tr := results[1].Result.(map[string]any)["trace"]; tr != "batch-trace" {
		t.Errorf("sub-call 1 trace = %v, want the batch's batch-trace", tr)
	}
}

// syncWriter is a mutex-guarded byte buffer for slog handlers shared with
// server goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestRequestLogCarriesTraceAndFault(t *testing.T) {
	var out syncWriter
	s, err := NewServer(Config{
		AdminDNs:   []string{adminDN.String()},
		RequestLog: slog.New(slog.NewJSONHandler(&out, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "logged-trace"}, "system.ping")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	if resp := call(t, s, xmlrpc.New(), nil, "no.such_method"); resp.Fault == nil {
		t.Fatal("expected fault")
	}
	logs := out.String()
	if !strings.Contains(logs, `"trace":"logged-trace"`) {
		t.Errorf("log lacks the inbound trace:\n%s", logs)
	}
	if !strings.Contains(logs, `"method":"system.ping"`) {
		t.Errorf("log lacks the method name:\n%s", logs)
	}
	if !strings.Contains(logs, `"method":"no.such_method"`) || !strings.Contains(logs, `"fault":`) {
		t.Errorf("faulting dispatch not logged with a fault code:\n%s", logs)
	}
}

func TestMetricsStageFeedsTelemetryRegistry(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 3; i++ {
		if resp := call(t, s, xmlrpc.New(), nil, "system.ping"); resp.Fault != nil {
			t.Fatal(resp.Fault)
		}
	}
	if resp := call(t, s, xmlrpc.New(), nil, "no.such"); resp.Fault == nil {
		t.Fatal("expected fault")
	}
	var ping, unknown *telemetry.MethodSnapshot
	for _, m := range s.Telemetry().MethodSnapshots() {
		m := m
		switch m.Method {
		case "system.ping":
			ping = &m
		case "no.such":
			unknown = &m
		}
	}
	if ping == nil || ping.Requests != 3 || ping.Faults != 0 {
		t.Errorf("system.ping snapshot = %+v, want 3 requests, 0 faults", ping)
	}
	if ping != nil && ping.Latency.Count != 3 {
		t.Errorf("system.ping latency count = %d, want 3", ping.Latency.Count)
	}
	if unknown == nil || unknown.Faults != 1 {
		t.Errorf("no.such snapshot = %+v, want 1 fault", unknown)
	}
	if agg := s.Telemetry().RPCAggregate(); agg.Count < 4 {
		t.Errorf("aggregate count = %d, want >= 4", agg.Count)
	}
}

func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	s := newTestServer(t)
	s.MountMetrics("/metrics")
	if resp := call(t, s, xmlrpc.New(), nil, "system.ping"); resp.Fault != nil {
		t.Fatal(resp.Fault)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, w := range []string{
		`clarens_rpc_requests_total{method="system.ping"} 1`,
		`clarens_rpc_latency_seconds{method="system.ping",quantile="0.99"}`,
		`clarens_rpc_latency_all_seconds_bucket{le=`,
		`clarens_core_sessions`,
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics output lacks %q", w)
		}
	}

	// The scrape endpoint is read-only.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestSystemHealthAndStatsLatency(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.health")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	h := resp.Result.(map[string]any)
	if h["status"] != "ok" {
		t.Errorf("health status = %v", h["status"])
	}

	// A failing registered check degrades the status and names itself.
	s.RegisterHealthCheck("flaky", func() error { return errTest })
	h = call(t, s, xmlrpc.New(), nil, "system.health").Result.(map[string]any)
	if h["status"] != "degraded" {
		t.Errorf("health status with failing check = %v", h["status"])
	}
	checks := h["checks"].(map[string]any)
	if msg, _ := checks["flaky"].(string); !strings.Contains(msg, "boom") {
		t.Errorf("checks = %v, want flaky: boom", checks)
	}

	// system.stats exposes the latency quantile section per method.
	st := call(t, s, xmlrpc.New(), sessionFor(t, s, adminDN), "system.stats").Result.(map[string]any)
	lat, ok := st["latency"].(map[string]any)
	if !ok {
		t.Fatalf("stats lacks latency section: %v", st)
	}
	if _, ok := lat["system.health"]; !ok {
		t.Errorf("latency section lacks system.health: %v", lat)
	}

	// Registered sections merge in under their name.
	s.RegisterStatsSection("custom", func() map[string]any { return map[string]any{"k": 1} })
	st = call(t, s, xmlrpc.New(), sessionFor(t, s, adminDN), "system.stats").Result.(map[string]any)
	if _, ok := st["custom"]; !ok {
		t.Errorf("stats lacks registered section: %v", st)
	}
}

var errTest = &rpc.Fault{Code: rpc.CodeInternal, Message: "boom"}

// BenchmarkTelemetryStages measures the per-dispatch cost of trace
// identity and observation: a no-op method dispatched with the access
// checks off and request logging off (the default) — the acceptance
// budget is 500 ns.
func BenchmarkTelemetryStages(b *testing.B) {
	s, err := NewServer(Config{DisableAuth: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	noop := &Method{Name: "bench.noop", Handler: func(ctx *Context, p Params) (any, error) { return nil, nil }}
	ctx := &Context{Context: context.Background(), methodName: noop.Name, method: noop, srv: s}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh trace state per iteration, as in a real dispatch.
		ctx.trace, ctx.span, ctx.parentSpan = "", "", ""
		if _, err := s.dispatch(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}
