package core

import (
	"context"
	"errors"
	"log/slog"
	"maps"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/telemetry"
)

// A panicking handler must leave the same record as any other fault: a
// span, a request-log line and a registry fault — at the top level and
// as a multicall sub-call.
func TestPanicIsTracedAndLogged(t *testing.T) {
	var out syncWriter
	s, err := NewServer(Config{TraceStore: true, RequestLog: slog.New(slog.NewJSONHandler(&out, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registerTest(t, s, Method{
		Name: "t.boom", Public: true,
		Handler: func(ctx *Context, p Params) (any, error) { panic("kaboom") },
	})

	call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "panic-top"}, "t.boom")
	call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: "panic-sub"}, rpc.MulticallMethod,
		rpc.MulticallParams([]rpc.SubCall{{Method: "t.boom"}})...)

	for trace, wantSpans := range map[string]int{"panic-top": 1, "panic-sub": 2} {
		spans := s.Spans().Trace(trace)
		if len(spans) != wantSpans {
			t.Fatalf("trace %s: %d spans, want %d: %+v", trace, len(spans), wantSpans, spans)
		}
		for _, sp := range spans {
			if sp.Method == "t.boom" && sp.Fault != rpc.CodeInternal {
				t.Errorf("trace %s: t.boom span fault = %d, want %d", trace, sp.Fault, rpc.CodeInternal)
			}
		}
	}
	logged := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, `"method":"t.boom"`) && strings.Contains(line, `"fault":`+strconv.Itoa(rpc.CodeInternal)) {
			logged++
		}
	}
	if logged != 2 {
		t.Errorf("%d faulted t.boom log entries, want 2:\n%s", logged, out.String())
	}
	if m := s.Telemetry().Method("t.boom"); m.Requests.Value() != 2 || m.Faults.Value() != 2 {
		t.Errorf("registry: %d requests, %d faults, want 2 and 2", m.Requests.Value(), m.Faults.Value())
	}
}

// counts is one view's per-method {requests, faults}.
type counts map[string][2]uint64

var rpcSeries = regexp.MustCompile(`(?m)^clarens_rpc_(requests|faults)_total\{method="([^"]+)"\} (\d+)$`)
var shedSeries = regexp.MustCompile(`(?m)^clarens_core_shed_total (\d+)$`)

// TestObservationViewsAgree drives every kind of outcome through the
// pipeline and, after each, requires Stats().Snapshot(), system.stats and
// /metrics to report the same per-method counts. Calls the shed stage
// rejects are traced and counted as shed, and appear in none of them.
func TestObservationViewsAgree(t *testing.T) {
	s, err := NewServer(Config{AdminDNs: []string{adminDN.String()}, TraceStore: true, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, started := make(chan struct{}), make(chan struct{}, 1)
	registerTest(t, s,
		Method{Name: "t.fail", Public: true, Handler: func(*Context, Params) (any, error) { return nil, errors.New("no") }},
		blockingMethod(release, started),
	)
	post := func(trace, method string, params ...any) *rpc.Response {
		return call(t, s, xmlrpc.New(), map[string]string{telemetry.TraceHeader: trace}, method, params...)
	}

	want, wantShed := counts{}, 0
	steps := []struct {
		name string
		do   func()
		add  counts
		shed string // trace ID of the call the shed stage rejects
	}{
		{"ok", func() { post("ok", "system.ping") }, counts{"system.ping": {1, 0}}, ""},
		{"application fault", func() { post("app", "t.fail") }, counts{"t.fail": {1, 1}}, ""},
		{"acl deny", func() { post("deny", "vo.create_group", "cms") }, counts{"vo.create_group": {1, 1}}, ""},
		{"unknown method", func() { post("unknown", "no.such") }, counts{"no.such": {1, 1}}, ""},
		{"multicall", func() {
			post("batch", rpc.MulticallMethod, rpc.MulticallParams([]rpc.SubCall{
				{Method: "system.ping"}, {Method: "system.ping"}, {Method: "system.ping"}, {Method: "system.ping"},
				{Method: "t.fail"}, {Method: "vo.create_group", Params: []any{"cms"}}, {Method: "no.such"}, {Method: "system.ping"},
			})...)
		}, counts{rpc.MulticallMethod: {1, 0}, "system.ping": {5, 0}, "t.fail": {1, 1}, "vo.create_group": {1, 1}, "no.such": {1, 1}}, ""},
		{"shed by MaxInFlight", func() {
			first := make(chan *rpc.Response, 1)
			go func() { first <- s.Dispatch(nil, "test", &rpc.Request{Method: "t.block"}) }()
			<-started
			if r := post("shed-inflight", "system.ping"); r.Fault == nil || r.Fault.Code != rpc.CodeOverloaded {
				t.Errorf("over-limit call not shed: %+v", r)
			}
			close(release)
			<-first
		}, counts{"t.block": {1, 0}}, "shed-inflight"},
		{"shed by drain", func() {
			if err := s.Drain(context.Background()); err != nil {
				t.Error(err)
			}
			if r := post("shed-drain", "system.ping"); r.Fault == nil || r.Fault.Code != rpc.CodeOverloaded {
				t.Errorf("call while draining not shed: %+v", r)
			}
		}, nil, "shed-drain"},
	}
	for _, st := range steps {
		st.do()
		for m, c := range st.add {
			want[m] = [2]uint64{want[m][0] + c[0], want[m][1] + c[1]}
		}
		var wantReq, wantFaults uint64
		for _, c := range want {
			wantReq, wantFaults = wantReq+c[0], wantFaults+c[1]
		}

		// View 1: the Stats snapshot (per-method requests only).
		requests, faults, byMethod := s.Stats().Snapshot()
		if requests != wantReq || faults != wantFaults {
			t.Errorf("%s: Snapshot totals = %d/%d, want %d/%d", st.name, requests, faults, wantReq, wantFaults)
		}

		// View 2: system.stats, read through the handler so the reading
		// itself is not a dispatch (and still works while draining).
		stats, err := systemService{s}.stats(&Context{DN: adminDN, srv: s})
		if err != nil {
			t.Fatal(err)
		}
		if stats["requests"] != int(wantReq) || stats["faults"] != int(wantFaults) {
			t.Errorf("%s: system.stats totals = %v/%v, want %d/%d", st.name, stats["requests"], stats["faults"], wantReq, wantFaults)
		}
		sysStats := counts{}
		for m, lat := range stats["latency"].(map[string]any) {
			l := lat.(map[string]any)
			sysStats[m] = [2]uint64{uint64(l["count"].(int)), uint64(l["faults"].(int))}
		}

		// View 3: the /metrics exposition.
		var b strings.Builder
		s.Telemetry().WritePrometheus(&b)
		metrics := counts{}
		for _, m := range rpcSeries.FindAllStringSubmatch(b.String(), -1) {
			n, _ := strconv.ParseUint(m[3], 10, 64)
			c := metrics[m[2]]
			if m[1] == "requests" {
				c[0] = n
			} else {
				c[1] = n
			}
			metrics[m[2]] = c
		}

		if !maps.Equal(sysStats, want) || !maps.Equal(metrics, want) {
			t.Errorf("%s: views disagree\n want         %v\n system.stats %v\n /metrics     %v", st.name, want, sysStats, metrics)
		}
		for m, c := range want {
			if byMethod[m] != c[0] || stats["by_method"].(map[string]any)[m] != int(c[0]) {
				t.Errorf("%s: %s: Snapshot=%d by_method=%v, want %d", st.name, m, byMethod[m], stats["by_method"].(map[string]any)[m], c[0])
			}
		}
		if len(byMethod) != len(want) || len(stats["by_method"].(map[string]any)) != len(want) {
			t.Errorf("%s: extra methods: Snapshot=%v by_method=%v", st.name, byMethod, stats["by_method"])
		}

		if st.shed != "" {
			wantShed++
			spans := s.Spans().Trace(st.shed)
			if len(spans) != 1 || spans[0].Fault != rpc.CodeOverloaded {
				t.Errorf("%s: spans = %+v, want one span faulted %d", st.name, spans, rpc.CodeOverloaded)
			}
		}
		if m := shedSeries.FindStringSubmatch(b.String()); m == nil || m[1] != strconv.Itoa(wantShed) {
			t.Errorf("%s: clarens_core_shed_total = %v, want %d", st.name, m, wantShed)
		}
	}
}
