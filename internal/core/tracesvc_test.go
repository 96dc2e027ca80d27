package core

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/telemetry"
)

// newTraceServer builds a server with the flight recorder on and a slow
// threshold high enough that only forced/faulted traces sample.
func newTraceServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(Config{
		AdminDNs:   []string{adminDN.String()},
		TraceStore: true,
		TraceSlow:  time.Hour,
		ServerName: "origin",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTraceStoreForceSampleAndGet(t *testing.T) {
	s := newTraceServer(t)

	// A fast, clean call without the sample header leaves no record.
	resp := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "plain-1"}, "system.ping")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	if s.Spans().Sampled("plain-1") {
		t.Fatal("unremarkable trace was sampled")
	}

	// The sample header force-promotes the trace.
	resp = call(t, s, xmlrpc.New(), map[string]string{
		telemetry.TraceHeader:  "forced-1",
		telemetry.SampleHeader: "1",
	}, "system.ping")
	if resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	if !s.Spans().Sampled("forced-1") {
		t.Fatal("sample header did not promote the trace")
	}

	// trace.get returns the merged document for admins.
	admin := sessionFor(t, s, adminDN)
	got := call(t, s, xmlrpc.New(), admin, "trace.get", "forced-1")
	if got.Fault != nil {
		t.Fatal(got.Fault)
	}
	doc := got.Result.(map[string]any)
	spans := doc["spans"].([]any)
	if len(spans) != 1 {
		t.Fatalf("spans = %v, want 1", spans)
	}
	sp := spans[0].(map[string]any)
	if sp["method"] != "system.ping" || sp["server"] != "origin" {
		t.Errorf("span = %v", sp)
	}
	if _, ok := sp["start_ms"].(float64); !ok {
		t.Errorf("span lacks numeric start_ms: %v", sp)
	}

	// Unknown traces fault.
	if r := call(t, s, xmlrpc.New(), admin, "trace.get", "no-such-trace"); r.Fault == nil {
		t.Error("trace.get for unknown trace did not fault")
	}

	// The trace module rides the default admins ACL: anonymous callers
	// are refused.
	if r := call(t, s, xmlrpc.New(), nil, "trace.get", "forced-1"); r.Fault == nil {
		t.Error("anonymous trace.get was allowed")
	}
}

func TestTraceStoreFaultedTraceSampled(t *testing.T) {
	s := newTraceServer(t)
	if r := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "fault-1"}, "no.such_method"); r.Fault == nil {
		t.Fatal("expected fault")
	}
	if !s.Spans().Sampled("fault-1") {
		t.Fatal("faulted trace was not tail-sampled")
	}
	spans := s.Spans().Trace("fault-1")
	if len(spans) != 1 || spans[0].Fault == 0 {
		t.Fatalf("spans = %+v, want one faulted span", spans)
	}
}

// A method carrying the TraceSample flag force-samples every trace it
// appears in — the per-method half of the escape hatch.
func TestTraceStoreMethodSampleFlag(t *testing.T) {
	s := newTraceServer(t)
	registerTest(t, s, Method{
		Name: "t.sampled", Help: "always sampled", Signature: []string{"string"},
		Public: true, TraceSample: true,
		Handler: func(ctx *Context, p Params) (any, error) { return "ok", nil },
	})
	if r := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "meth-1"}, "t.sampled"); r.Fault != nil {
		t.Fatal(r.Fault)
	}
	if !s.Spans().Sampled("meth-1") {
		t.Fatal("TraceSample method did not promote its trace")
	}
}

func TestTraceSearchFilters(t *testing.T) {
	s := newTraceServer(t)
	admin := sessionFor(t, s, adminDN)
	for _, tr := range []string{"s-1", "s-2"} {
		call(t, s, xmlrpc.New(), map[string]string{
			telemetry.TraceHeader:  tr,
			telemetry.SampleHeader: "1",
		}, "system.ping")
	}
	r := call(t, s, xmlrpc.New(), admin, "trace.search", map[string]any{"method": "system.ping"})
	if r.Fault != nil {
		t.Fatal(r.Fault)
	}
	rows := r.Result.([]any)
	if len(rows) != 2 {
		t.Fatalf("search rows = %d, want 2", len(rows))
	}
	if m := rows[0].(map[string]any); m["method"] != "system.ping" {
		t.Errorf("row = %v", m)
	}
	// A filter that matches nothing returns an empty list, not a fault.
	r = call(t, s, xmlrpc.New(), admin, "trace.search", map[string]any{"method": "no.method"})
	if r.Fault != nil || len(r.Result.([]any)) != 0 {
		t.Errorf("empty search = %v / %v", r.Result, r.Fault)
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	s := newTraceServer(t)
	call(t, s, xmlrpc.New(), map[string]string{
		telemetry.TraceHeader:  "dbg-1",
		telemetry.SampleHeader: "1",
	}, "system.ping")

	// Merged document.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/dbg-1", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/traces/dbg-1 = %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["trace"] != "dbg-1" || len(doc["spans"].([]any)) != 1 {
		t.Errorf("document = %v", doc)
	}

	// Local form: raw telemetry.Span JSON plus the server stamp.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/dbg-1?local=1", nil))
	var local struct {
		Server string           `json:"server"`
		Spans  []telemetry.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &local); err != nil {
		t.Fatal(err)
	}
	if local.Server != "origin" || len(local.Spans) != 1 || local.Spans[0].Method != "system.ping" {
		t.Errorf("local document = %+v", local)
	}

	// Bad IDs and non-GET verbs are refused.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/", nil))
	if rec.Code != 400 {
		t.Errorf("empty id = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces/dbg-1", nil))
	if rec.Code != 405 {
		t.Errorf("POST = %d, want 405", rec.Code)
	}
}

func TestTraceStoreStatsHealthAndMetrics(t *testing.T) {
	s := newTraceServer(t)
	s.MountMetrics("/metrics")
	call(t, s, xmlrpc.New(), map[string]string{
		telemetry.TraceHeader:  "m-1",
		telemetry.SampleHeader: "1",
	}, "system.ping")

	// system.stats carries the trace_store section.
	st := call(t, s, xmlrpc.New(), sessionFor(t, s, adminDN), "system.stats").Result.(map[string]any)
	ts, ok := st["trace_store"].(map[string]any)
	if !ok {
		t.Fatalf("stats lacks trace_store section: %v", st)
	}
	if n, _ := ts["sampled_traces"].(int); n < 1 {
		t.Errorf("trace_store section = %v, want sampled_traces >= 1", ts)
	}

	// system.health includes the trace_store check.
	h := call(t, s, xmlrpc.New(), nil, "system.health").Result.(map[string]any)
	if _, ok := h["checks"].(map[string]any)["trace_store"]; !ok {
		t.Errorf("health lacks trace_store check: %v", h)
	}

	// /metrics carries the exemplar for the sampled trace.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `# {trace_id="m-1"}`) {
		t.Errorf("metrics lack the exemplar:\n%s", rec.Body.String())
	}
}

// Requests beyond the slow threshold log at warn with the span breakdown
// inline.
func TestSlowRequestLogsWarnWithSpans(t *testing.T) {
	var out syncWriter
	s, err := NewServer(Config{
		AdminDNs:   []string{adminDN.String()},
		TraceStore: true,
		TraceSlow:  time.Nanosecond, // everything is "slow"
		ServerName: "origin",
		RequestLog: slog.New(slog.NewJSONHandler(&out, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r := call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "slow-1"}, "system.ping"); r.Fault != nil {
		t.Fatal(r.Fault)
	}
	logs := out.String()
	if !strings.Contains(logs, `"level":"WARN"`) || !strings.Contains(logs, "slow rpc") {
		t.Errorf("slow request not logged at warn:\n%s", logs)
	}
	if !strings.Contains(logs, `"spans":"system.ping`) {
		t.Errorf("slow log lacks the span breakdown:\n%s", logs)
	}
}

// Sub-calls buffer under their parent's trace and ride its decision;
// a sub-call with a foreign trace acts as that trace's local root.
func TestTraceStoreSubCallsAndForeignRoot(t *testing.T) {
	s := newTraceServer(t)
	registerTest(t, s,
		Method{
			Name: "t.inner", Help: "inner", Signature: []string{"string"}, Public: true,
			Handler: func(ctx *Context, p Params) (any, error) { return "in", nil },
		},
		Method{
			Name: "t.outer", Help: "outer", Signature: []string{"string"}, Public: true,
			Handler: func(ctx *Context, p Params) (any, error) {
				if _, err := s.invoke(ctx, rpc.SubCall{Method: "t.inner"}); err != nil {
					return nil, err
				}
				return "out", nil
			},
		})
	if r := call(t, s, xmlrpc.New(), map[string]string{
		telemetry.TraceHeader:  "nest-1",
		telemetry.SampleHeader: "1",
	}, "t.outer"); r.Fault != nil {
		t.Fatal(r.Fault)
	}
	spans := s.Spans().Trace("nest-1")
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want outer+inner", spans)
	}

	// A forwarded sub-call (one carrying a foreign trace) is its own
	// local root: a faulting one samples its trace immediately.
	root := &Context{Context: t.Context(), srv: s, trace: "batch-t", span: telemetry.NewSpanID()}
	if _, err := s.invoke(root, rpc.SubCall{Method: "no.such", Trace: "job-t-1"}); err == nil {
		t.Fatal("expected fault")
	}
	if !s.Spans().Sampled("job-t-1") {
		t.Error("foreign-trace sub-call fault did not sample its own trace")
	}
	if s.Spans().Sampled("batch-t") {
		t.Error("carrier batch trace sampled by the sub-call's fault")
	}
}
