package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"clarens/internal/acl"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// TestDispatchStageOutcomes pins what each built-in dispatch stage does
// to one call, whatever the code that runs them: the fault the caller
// gets, whether the telemetry registry counted the call, whether its span
// was recorded, whether a Use stage saw it (and with which DN), and how
// many calls the shed stage refused.
func TestDispatchStageOutcomes(t *testing.T) {
	wait := func(ctx *Context, p Params) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	rows := []struct {
		name   string
		method string // the call whose outcome is checked
		anon   bool   // the call carries no session
		sub    bool   // the call is the one sub-call of a system.multicall
		// prep readies the server and the carrying request; the returned
		// func, when non-nil, runs after the call.
		prep    func(t *testing.T, s *Server, r *http.Request) (*http.Request, func())
		fault   int
		counted bool // the registry counted the call
		used    bool // the Use stage saw the call, with the caller's DN
		shed    uint64
	}{
		{name: "success", method: "t.ok", counted: true, used: true},
		{name: "handler error", method: "t.fail", fault: rpc.CodeApplication, counted: true, used: true},
		{name: "handler panic", method: "t.boom", fault: rpc.CodeInternal, counted: true, used: true},
		{name: "panicking Use stage", method: "t.usepanic", fault: rpc.CodeInternal, counted: true, used: true},
		{name: "unknown method", method: "t.nosuch", fault: rpc.CodeMethodNotFound, counted: true, used: true},
		{name: "unauthenticated non-public", method: "t.ok", anon: true, fault: rpc.CodeAccessDenied, counted: true},
		{name: "ACL deny", method: "t.denied", fault: rpc.CodeAccessDenied, counted: true},
		{name: "drain shed", method: "t.ok", fault: rpc.CodeOverloaded, shed: 1,
			prep: func(t *testing.T, s *Server, r *http.Request) (*http.Request, func()) {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return r, nil
			}},
		{name: "expired-deadline shed", method: "t.ok", fault: rpc.CodeOverloaded, shed: 1,
			prep: func(t *testing.T, s *Server, r *http.Request) (*http.Request, func()) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				return r.WithContext(ctx), cancel
			}},
		{name: "MaxInFlight shed", method: "t.ok", fault: rpc.CodeOverloaded, shed: 1,
			prep: func(t *testing.T, s *Server, r *http.Request) (*http.Request, func()) {
				release, started := make(chan struct{}), make(chan struct{}, 1)
				registerTest(t, s, blockingMethod(release, started))
				done := make(chan *rpc.Response, 1)
				go func() { done <- s.Dispatch(nil, "test", &rpc.Request{Method: "t.block"}) }()
				<-started
				return r, func() {
					close(release)
					if resp := <-done; resp.Fault != nil {
						t.Errorf("admitted blocker: %v", resp.Fault)
					}
				}
			}},
		{name: "Method.Timeout expiry", method: "t.slow", fault: rpc.CodeApplication, counted: true, used: true},
		{name: "multicall sub-call", method: "t.ok", sub: true, counted: true, used: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, err := NewServer(Config{AdminDNs: []string{adminDN.String()}, TraceStore: true, MaxInFlight: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			err = s.Register(testService{[]Method{
				{Name: "t.ok", Handler: func(*Context, Params) (any, error) { return "ok", nil }},
				{Name: "t.fail", Handler: func(*Context, Params) (any, error) { return nil, errors.New("no") }},
				{Name: "t.boom", Handler: func(*Context, Params) (any, error) { panic("kaboom") }},
				{Name: "t.usepanic", Handler: func(*Context, Params) (any, error) { return "unreached", nil }},
				{Name: "t.denied", Handler: func(*Context, Params) (any, error) { return "unreached", nil }},
				{Name: "t.slow", Timeout: 10 * time.Millisecond, Handler: wait},
			}})
			if err != nil {
				t.Fatal(err)
			}
			// Any authenticated caller may call the module, except that
			// the user is denied t.denied.
			if err := s.MethodACL().Set("t", &acl.ACL{AllowDNs: []string{acl.EntryAny}}); err != nil {
				t.Fatal(err)
			}
			if err := s.MethodACL().Set("t.denied", &acl.ACL{DenyDNs: []string{userDN.String()}}); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			seen := map[string][]string{} // method -> DNs the Use stage saw it with
			s.Use(func(next Handler) Handler {
				return func(ctx *Context, p Params) (any, error) {
					mu.Lock()
					seen[ctx.MethodName()] = append(seen[ctx.MethodName()], ctx.DN.String())
					mu.Unlock()
					if ctx.MethodName() == "t.usepanic" {
						panic("use stage")
					}
					return next(ctx, p)
				}
			})

			const trace = "stage-outcome"
			r := httptest.NewRequest(http.MethodPost, "/rpc", nil)
			r.Header.Set(telemetry.TraceHeader, trace)
			r.Header.Set(telemetry.SampleHeader, "1")
			if !row.anon {
				r.Header.Set(SessionHeader, sessionFor(t, s, userDN)[SessionHeader])
			}
			if row.prep != nil {
				var after func()
				if r, after = row.prep(t, s, r); after != nil {
					defer after()
				}
			}
			shed0 := s.Telemetry().CounterValues()["clarens.core.shed_total"]

			req := &rpc.Request{Method: row.method}
			if row.sub {
				req = &rpc.Request{Method: rpc.MulticallMethod, Params: rpc.MulticallParams([]rpc.SubCall{{Method: row.method}})}
			}
			resp := s.Dispatch(r, "test", req)
			fault := resp.Fault
			if row.sub && fault == nil {
				results, err := rpc.ParseMulticallResults(resp.Result)
				if err != nil || len(results) != 1 {
					t.Fatalf("multicall results %v: %v", resp.Result, err)
				}
				fault = results[0].Fault
			}

			gotFault := 0
			if fault != nil {
				gotFault = fault.Code
			}
			if gotFault != row.fault {
				t.Errorf("fault = %+v, want code %d", fault, row.fault)
			}
			if got := s.Telemetry().Method(row.method).Requests.Value(); got != map[bool]uint64{true: 1}[row.counted] {
				t.Errorf("registry counted %d calls, want counted=%v", got, row.counted)
			}
			spans := 0
			for _, sp := range s.Spans().Trace(trace) {
				if sp.Method == row.method {
					spans++
					if sp.Fault != row.fault {
						t.Errorf("span fault = %d, want %d", sp.Fault, row.fault)
					}
				}
			}
			if spans != 1 {
				t.Errorf("%d spans recorded for %s, want 1", spans, row.method)
			}
			mu.Lock()
			saw := seen[row.method]
			mu.Unlock()
			switch {
			case !row.used && len(saw) != 0:
				t.Errorf("Use stage saw the call (DNs %q), want not", saw)
			case row.used && (len(saw) != 1 || saw[0] != userDN.String()):
				t.Errorf("Use stage saw the call with DNs %q, want once with %q", saw, userDN)
			}
			if got := s.Telemetry().CounterValues()["clarens.core.shed_total"] - shed0; got != row.shed {
				t.Errorf("clarens.core.shed_total +%d, want +%d", got, row.shed)
			}
		})
	}
}
