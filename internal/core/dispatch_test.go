package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clarens/internal/acl"
	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlrpc"
)

// testService registers ad-hoc methods under the "t" module for pipeline
// tests.
type testService struct{ methods []Method }

func (testService) Name() string        { return "t" }
func (s testService) Methods() []Method { return s.methods }

func registerTest(t *testing.T, s *Server, methods ...Method) {
	t.Helper()
	if err := s.Register(testService{methods}); err != nil {
		t.Fatal(err)
	}
	// Open the module so anonymous test calls pass the ACL stage.
	if err := s.MethodACL().Set("t", &acl.ACL{AllowDNs: []string{acl.EntryAny, acl.EntryAnonymous}}); err != nil {
		t.Fatal(err)
	}
}

func TestInterceptorOrdering(t *testing.T) {
	s := newTestServer(t)
	var mu sync.Mutex
	var trace []string
	mark := func(name string) Interceptor {
		return func(next Handler) Handler {
			return func(ctx *Context, p Params) (any, error) {
				mu.Lock()
				trace = append(trace, name+":pre:"+ctx.MethodName())
				mu.Unlock()
				result, err := next(ctx, p)
				mu.Lock()
				trace = append(trace, name+":post")
				mu.Unlock()
				return result, err
			}
		}
	}
	s.Use(mark("outer"), mark("inner"))

	resp := s.Dispatch(nil, "test", &rpc.Request{Method: "system.ping"})
	if resp.Fault != nil {
		t.Fatalf("fault: %v", resp.Fault)
	}
	want := []string{"outer:pre:system.ping", "inner:pre:system.ping", "inner:post", "outer:post"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

// TestUseWhileDispatching: Use swaps the chain while calls run. Every
// call completes, and once the Use calls are done the next call runs
// through every stage they added.
func TestUseWhileDispatching(t *testing.T) {
	s := newTestServer(t)
	var passes atomic.Int64
	stage := func(next Handler) Handler {
		return func(ctx *Context, p Params) (any, error) {
			passes.Add(1)
			return next(ctx, p)
		}
	}
	const stages = 20
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp := s.Dispatch(nil, "test", &rpc.Request{Method: "system.ping"}); resp.Fault != nil {
					t.Errorf("ping during Use: %v", resp.Fault)
					return
				}
			}
		}()
	}
	for range stages {
		s.Use(stage)
	}
	close(stop)
	wg.Wait()
	before := passes.Load()
	if resp := s.Dispatch(nil, "test", &rpc.Request{Method: "system.ping"}); resp.Fault != nil {
		t.Fatal(resp.Fault)
	}
	if got := passes.Load() - before; got != stages {
		t.Errorf("a call after %d Use calls passed %d stages", stages, got)
	}
}

func TestInterceptorObservesIdentityAndUnknownMethods(t *testing.T) {
	s := newTestServer(t)
	var mu sync.Mutex
	seen := map[string]int{}
	var sawDN string
	s.Use(func(next Handler) Handler {
		return func(ctx *Context, p Params) (any, error) {
			mu.Lock()
			seen[ctx.MethodName()]++
			if !ctx.DN.IsZero() {
				sawDN = ctx.DN.String()
			}
			mu.Unlock()
			return next(ctx, p)
		}
	})

	// Custom interceptors run inside the auth stage: identity is resolved.
	call(t, s, xmlrpc.New(), sessionFor(t, s, userDN), "system.whoami")
	if sawDN != userDN.String() {
		t.Errorf("interceptor saw DN %q, want %q", sawDN, userDN)
	}
	if seen["system.whoami"] != 1 {
		t.Errorf("whoami observed %d times", seen["system.whoami"])
	}
	// Unknown methods still traverse the pipeline (the terminal stage
	// faults), so interceptors can rate-limit garbage too.
	if resp := s.Dispatch(nil, "test", &rpc.Request{Method: "no.such"}); resp.Fault == nil {
		t.Fatal("expected method-not-found fault")
	}
	if seen["no.such"] != 1 {
		t.Errorf("unknown method observed %d times", seen["no.such"])
	}
}

func TestPanicRecoveryReturnsFault(t *testing.T) {
	s := newTestServer(t)
	registerTest(t, s, Method{
		Name: "t.boom", Help: "panics", Signature: []string{"string"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) { panic("kaboom") },
	})

	// Over the wire: the connection must survive and carry a fault.
	resp := call(t, s, xmlrpc.New(), nil, "t.boom")
	if resp.Fault == nil {
		t.Fatal("expected fault from panicking handler")
	}
	if resp.Fault.Code != rpc.CodeInternal {
		t.Errorf("fault code = %d, want %d", resp.Fault.Code, rpc.CodeInternal)
	}
	if !strings.Contains(resp.Fault.Message, "t.boom") {
		t.Errorf("fault message %q does not name the method", resp.Fault.Message)
	}
	// The server stays fully functional and counted the fault.
	if resp := call(t, s, xmlrpc.New(), nil, "system.ping"); resp.Fault != nil {
		t.Fatalf("server broken after panic: %v", resp.Fault)
	}
	_, faults, byMethod := s.Stats().Snapshot()
	if faults == 0 || byMethod["t.boom"] != 1 {
		t.Errorf("stats: faults=%d byMethod[t.boom]=%d", faults, byMethod["t.boom"])
	}
}

func TestContextCancellationMidHandler(t *testing.T) {
	s := newTestServer(t)
	entered := make(chan struct{})
	registerTest(t, s, Method{
		Name: "t.block", Help: "blocks until cancelled", Signature: []string{"string"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) {
			close(entered)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return "not cancelled", nil
			}
		},
	})

	base, cancel := context.WithCancel(context.Background())
	done := make(chan *rpc.Response, 1)
	go func() {
		done <- s.DispatchContext(base, nil, "test", &rpc.Request{Method: "t.block"})
	}()
	<-entered
	cancel()
	select {
	case resp := <-done:
		if resp.Fault == nil {
			t.Fatalf("expected fault, got result %v", resp.Result)
		}
		if !strings.Contains(resp.Fault.Message, context.Canceled.Error()) {
			t.Errorf("fault = %v, want cancellation", resp.Fault)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not observe cancellation")
	}
}

func TestPerMethodDeadline(t *testing.T) {
	s := newTestServer(t)
	registerTest(t, s, Method{
		Name: "t.slow", Help: "sleeps past its deadline", Signature: []string{"string"}, Public: true,
		Timeout: 20 * time.Millisecond,
		Handler: func(ctx *Context, p Params) (any, error) {
			if _, ok := ctx.Deadline(); !ok {
				return nil, errors.New("no deadline on context")
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return "never", nil
			}
		},
	})
	start := time.Now()
	resp := s.Dispatch(nil, "test", &rpc.Request{Method: "t.slow"})
	if resp.Fault == nil {
		t.Fatalf("expected deadline fault, got %v", resp.Result)
	}
	if !strings.Contains(resp.Fault.Message, context.DeadlineExceeded.Error()) {
		t.Errorf("fault = %v", resp.Fault)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

func TestServerWideMethodTimeout(t *testing.T) {
	s, err := NewServer(Config{MethodTimeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	registerTest(t, s, Method{
		Name: "t.hang", Help: "waits for the server-wide bound", Signature: []string{"string"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	resp := s.Dispatch(nil, "test", &rpc.Request{Method: "t.hang"})
	if resp.Fault == nil || !strings.Contains(resp.Fault.Message, context.DeadlineExceeded.Error()) {
		t.Fatalf("fault = %v, want server-wide deadline", resp.Fault)
	}
}

func TestMulticallPerSubCallACL(t *testing.T) {
	s := newTestServer(t)
	// system.stats requires server-admin; ping is public. The batch runs
	// as an ordinary user, so the stats entry must fault independently.
	headers := sessionFor(t, s, userDN)
	resp := call(t, s, xmlrpc.New(), headers, "system.multicall", rpc.MulticallParams([]rpc.SubCall{
		{Method: "system.ping"},
		{Method: "system.stats"},
		{Method: "system.whoami"},
	})...)
	if resp.Fault != nil {
		t.Fatalf("batch fault: %v", resp.Fault)
	}
	results, err := rpc.ParseMulticallResults(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Fault != nil || !rpc.Equal(results[0].Result, "pong") {
		t.Errorf("ping: %+v", results[0])
	}
	if results[1].Fault == nil {
		t.Errorf("stats as non-admin succeeded: %v", results[1].Result)
	}
	// The sub-call inherits the batch caller's session identity.
	if results[2].Fault != nil || !rpc.Equal(results[2].Result, userDN.String()) {
		t.Errorf("whoami: %+v", results[2])
	}
}

func TestMulticallFaultIsolationAndShape(t *testing.T) {
	s := newTestServer(t)
	registerTest(t, s, Method{
		Name: "t.panic", Help: "panics", Signature: []string{"string"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) { panic("sub-call panic") },
	})
	resp := call(t, s, xmlrpc.New(), nil, "system.multicall", rpc.MulticallParams([]rpc.SubCall{
		{Method: "system.echo", Params: []any{"first"}},
		{Method: "no.such.method"},
		{Method: "t.panic"},
		{Method: "system.multicall"}, // recursion refused
		{Method: "system.echo", Params: []any{"last"}},
	})...)
	if resp.Fault != nil {
		t.Fatalf("batch fault: %v", resp.Fault)
	}
	results, err := rpc.ParseMulticallResults(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	if !rpc.Equal(results[0].Result, "first") || !rpc.Equal(results[4].Result, "last") {
		t.Errorf("bracketing echoes: %+v / %+v", results[0], results[4])
	}
	if results[1].Fault == nil || results[1].Fault.Code != rpc.CodeMethodNotFound {
		t.Errorf("unknown method: %+v", results[1])
	}
	if results[2].Fault == nil || results[2].Fault.Code != rpc.CodeInternal {
		t.Errorf("panicking sub-call: %+v", results[2])
	}
	if results[3].Fault == nil || !strings.Contains(results[3].Fault.Message, "recursive") {
		t.Errorf("nested multicall: %+v", results[3])
	}
}

func TestMulticallBatchSizeLimit(t *testing.T) {
	s, err := NewServer(Config{MaxBatchCalls: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	within := make([]rpc.SubCall, 3)
	for i := range within {
		within[i] = rpc.SubCall{Method: "system.ping"}
	}
	resp := s.Dispatch(nil, "test", &rpc.Request{Method: "system.multicall", Params: rpc.MulticallParams(within)})
	if resp.Fault != nil {
		t.Fatalf("3-entry batch under limit 3 faulted: %v", resp.Fault)
	}
	over := append(within, rpc.SubCall{Method: "system.ping"})
	resp = s.Dispatch(nil, "test", &rpc.Request{Method: "system.multicall", Params: rpc.MulticallParams(over)})
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeInvalidParams {
		t.Fatalf("4-entry batch over limit 3: %v", resp.Fault)
	}
}

func TestMulticallStatsCountSubCalls(t *testing.T) {
	s := newTestServer(t)
	call(t, s, xmlrpc.New(), nil, "system.multicall", rpc.MulticallParams([]rpc.SubCall{
		{Method: "system.ping"},
		{Method: "system.ping"},
	})...)
	_, _, byMethod := s.Stats().Snapshot()
	if byMethod["system.ping"] != 2 {
		t.Errorf("ping count = %d, want 2", byMethod["system.ping"])
	}
	if byMethod["system.multicall"] != 1 {
		t.Errorf("multicall count = %d, want 1", byMethod["system.multicall"])
	}
}

func TestDispatchCancellationFromHTTPRequest(t *testing.T) {
	// The HTTP request's context is carried into the handler, so a
	// disconnected client cancels server-side work.
	s := newTestServer(t)
	base, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/rpc", nil).WithContext(base)
	registerTest(t, s, Method{
		Name: "t.ctx", Help: "reports context state", Signature: []string{"boolean"}, Public: true,
		Handler: func(ctx *Context, p Params) (any, error) {
			return ctx.Err() != nil, nil
		},
	})
	resp := s.Dispatch(req, "test", &rpc.Request{Method: "t.ctx"})
	if resp.Fault != nil {
		t.Fatalf("fault: %v", resp.Fault)
	}
	if !rpc.Equal(resp.Result, true) {
		t.Error("handler did not observe the HTTP request's cancellation")
	}
}

func TestUseCanRejectByRemoteAddr(t *testing.T) {
	// An IP allowlist as a Use stage: requests from outside the allowlist
	// fault before the method runs.
	s := newTestServer(t)
	s.Use(func(next Handler) Handler {
		return func(ctx *Context, p Params) (any, error) {
			if !strings.HasPrefix(ctx.RemoteAddr, "10.") {
				return nil, &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "address not allowed"}
			}
			return next(ctx, p)
		}
	})

	post := func(remote string) *rpc.Response {
		codec := xmlrpc.New()
		var buf strings.Builder
		if err := codec.EncodeRequest(&buf, &rpc.Request{Method: "system.ping"}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(buf.String()))
		req.Header.Set("Content-Type", "text/xml")
		req.RemoteAddr = remote
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		resp, err := codec.DecodeResponse(strings.NewReader(w.Body.String()))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post("10.0.0.7:1234"); resp.Fault != nil {
		t.Fatalf("allowed address faulted: %v", resp.Fault)
	}
	resp := post("203.0.113.9:1234")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied {
		t.Fatalf("blocked address = %+v, want access-denied fault", resp)
	}
}
