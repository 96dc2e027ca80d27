package clarens

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clarens/internal/rpc"
)

func TestBatchOverAllProtocols(t *testing.T) {
	srv, _ := startFull(t)
	for _, proto := range []string{"xmlrpc", "jsonrpc", "soap"} {
		t.Run(proto, func(t *testing.T) {
			c, err := Dial(srv.URL(), WithProtocol(proto))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			b := c.Batch()
			b.Add("system.ping").
				Add("system.echo", "batched").
				Add("no.such.method").
				Add("system.version")
			if b.Len() != 4 {
				t.Fatalf("Len = %d", b.Len())
			}
			results, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 4 {
				t.Fatalf("%d results", len(results))
			}
			if results[0].Err != nil || !rpc.Equal(results[0].Result, "pong") {
				t.Errorf("ping: %+v", results[0])
			}
			if results[1].Err != nil || !rpc.Equal(results[1].Result, "batched") {
				t.Errorf("echo: %+v", results[1])
			}
			var fault *rpc.Fault
			if !errors.As(results[2].Err, &fault) || fault.Code != rpc.CodeMethodNotFound {
				t.Errorf("unknown method: %+v", results[2])
			}
			if results[2].Method != "no.such.method" {
				t.Errorf("method label = %q", results[2].Method)
			}
			if results[3].Err != nil || !rpc.Equal(results[3].Result, Version) {
				t.Errorf("version: %+v", results[3])
			}
		})
	}
}

func TestBatchEmptyRunsNothing(t *testing.T) {
	_, c := startFull(t)
	results, err := c.Batch().Run()
	if err != nil || results != nil {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}

func TestBatchCarriesSessionIdentity(t *testing.T) {
	srv, c := startFull(t)
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	results, err := c.Batch().Add("system.whoami").Run()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || !rpc.Equal(results[0].Result, userDN.String()) {
		t.Errorf("whoami in batch: %+v", results[0])
	}
}

// TestTypedAccessorCoercion is the cross-codec table test: integral
// results must be accepted by CallInt however the protocol carried them
// (JSON-RPC hands doubles back as float64; XML-RPC and SOAP as int), and
// CallBool must take both native booleans and exact 0/1 numerics.
func TestTypedAccessorCoercion(t *testing.T) {
	srv, _ := startFull(t)
	for _, proto := range []string{"xmlrpc", "jsonrpc", "soap"} {
		t.Run(proto, func(t *testing.T) {
			c, err := Dial(srv.URL(), WithProtocol(proto))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, tc := range []struct {
				name string
				echo any
				want int
			}{
				{"int", 42, 42},
				{"negative-int", -7, -7},
				{"integral-double", 42.0, 42},
				{"zero-double", 0.0, 0},
			} {
				n, err := c.CallInt("system.echo", tc.echo)
				if err != nil {
					t.Errorf("CallInt(echo %v): %v", tc.echo, err)
				} else if n != tc.want {
					t.Errorf("CallInt(echo %v) = %d, want %d", tc.echo, n, tc.want)
				}
			}
			if _, err := c.CallInt("system.echo", 3.5); err == nil {
				t.Error("CallInt accepted non-integral 3.5")
			}
			for _, tc := range []struct {
				echo any
				want bool
			}{
				{true, true},
				{false, false},
				{1, true},
				{0, false},
			} {
				b, err := c.CallBool("system.echo", tc.echo)
				if err != nil {
					t.Errorf("CallBool(echo %v): %v", tc.echo, err)
				} else if b != tc.want {
					t.Errorf("CallBool(echo %v) = %v, want %v", tc.echo, b, tc.want)
				}
			}
			if _, err := c.CallBool("system.echo", 2); err == nil {
				t.Error("CallBool accepted 2")
			}
		})
	}
}

// TestCustomInterceptorObservesEveryCall registers an interceptor through
// the public API and verifies it sees every authorized call: direct
// calls, the multicall itself, and each of its sub-calls.
func TestCustomInterceptorObservesEveryCall(t *testing.T) {
	srv, c := startFull(t)
	var mu sync.Mutex
	seen := map[string]int{}
	srv.Use(func(next Handler) Handler {
		return func(ctx *Context, p Params) (any, error) {
			mu.Lock()
			seen[ctx.MethodName()]++
			mu.Unlock()
			return next(ctx, p)
		}
	})
	if _, err := c.Call("system.ping"); err != nil {
		t.Fatal(err)
	}
	results, err := c.Batch().
		Add("system.echo", "x").
		Add("system.time").
		Add("vo.groups").
		Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = results
	mu.Lock()
	defer mu.Unlock()
	for _, m := range []string{"system.ping", "system.multicall", "system.echo", "system.time", "vo.groups"} {
		if seen[m] != 1 {
			t.Errorf("interceptor saw %s %d times, want 1", m, seen[m])
		}
	}
}

// TestInterceptorRateLimit is the README's worked example: a per-DN
// token-bucket-ish limiter injected without touching core.
func TestInterceptorRateLimit(t *testing.T) {
	srv, c := startFull(t)
	const limit = 3
	var calls atomic.Int64
	srv.Use(func(next Handler) Handler {
		return func(ctx *Context, p Params) (any, error) {
			if calls.Add(1) > limit {
				return nil, &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "rate limit exceeded"}
			}
			return next(ctx, p)
		}
	})
	var limited int
	for i := 0; i < limit+2; i++ {
		if _, err := c.Call("system.ping"); err != nil {
			var fault *rpc.Fault
			if !errors.As(err, &fault) || fault.Message != "rate limit exceeded" {
				t.Fatalf("unexpected error: %v", err)
			}
			limited++
		}
	}
	if limited != 2 {
		t.Errorf("limited %d calls, want 2", limited)
	}
}

func TestCallCtxCancellation(t *testing.T) {
	_, c := startFull(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CallCtx(ctx, "system.ping"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// CallAsyncCtx under a cancelled context fails fast with the
	// cancellation as FirstErr.
	res := c.CallAsyncCtx(ctx, 4, 20, "system.ping")
	if res.Errors != 20 || !errors.Is(res.FirstErr, context.Canceled) {
		t.Errorf("async under cancelled ctx: %+v", res)
	}
}

// TestMulticallFasterThanSequential pins the acceptance criterion: a
// slowEchoService is a deliberately slow test method: it sleeps for the
// configured delay, then echoes its first parameter. Used to exercise the
// parallel multicall worker pool, where wall time is dominated by the
// handlers rather than the protocol.
type slowEchoService struct{ delay time.Duration }

func (slowEchoService) Name() string { return "slow" }

func (s slowEchoService) Methods() []Method {
	return []Method{{
		Name:      "slow.echo",
		Help:      "Sleep for a fixed delay, then return the first parameter.",
		Signature: []string{"any any"},
		Public:    true,
		Handler: func(ctx *Context, p Params) (any, error) {
			time.Sleep(s.delay)
			if len(p) == 0 {
				return nil, nil
			}
			return p[0], nil
		},
	}}
}

// TestMulticallParallelOrdering runs a batch of slow sub-calls through a
// server with BatchParallelism enabled and asserts the two invariants the
// worker pool must preserve: results come back in submission order
// (regardless of execution interleaving), and a faulting entry stays
// isolated to its own slot.
func TestMulticallParallelOrdering(t *testing.T) {
	srv, err := NewServer(Config{Name: "par", BatchParallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Register(slowEchoService{delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := srv.GrantMethod("slow", []string{EntryAny, EntryAnonymous}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const n = 24
	const faultAt = 7 // one bad entry mid-batch: must not disturb neighbors
	b := c.Batch()
	for i := 0; i < n; i++ {
		if i == faultAt {
			b.Add("no.such.method")
			continue
		}
		b.Add("slow.echo", fmt.Sprintf("entry-%d", i))
	}
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for i, r := range results {
		if i == faultAt {
			var fault *rpc.Fault
			if !errors.As(r.Err, &fault) || fault.Code != rpc.CodeMethodNotFound {
				t.Errorf("entry %d: want method-not-found fault, got %+v", i, r)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("entry %d: unexpected error %v", i, r.Err)
			continue
		}
		if want := fmt.Sprintf("entry-%d", i); !rpc.Equal(r.Result, want) {
			t.Errorf("entry %d: got %v, want %q (out of submission order?)", i, r.Result, want)
		}
	}
}

// 50-entry batch pays for one HTTP round trip — and so one auth pass —
// where 50 sequential calls on the same warmed connection pay for fifty.
// That is what makes it faster; the wall-clock comparison itself is only
// logged here (it is not stable on a loaded machine) and is measured by
// the benchmark's portal-multicall workload.
func TestMulticallFasterThanSequential(t *testing.T) {
	srv, c := startFull(t)
	const n = 50
	c.Call("system.ping") // warm the connection
	httpRequests := func() float64 {
		g := srv.Core().Telemetry().GaugeValues()
		return g["clarens.conn.http1_requests"] + g["clarens.conn.http2_requests"]
	}

	before := httpRequests()
	seqStart := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Call("system.echo", fmt.Sprintf("seq-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sequential := time.Since(seqStart)
	seqRequests := httpRequests() - before

	b := c.Batch()
	for i := 0; i < n; i++ {
		b.Add("system.echo", fmt.Sprintf("batch-%d", i))
	}
	before = httpRequests()
	batchStart := time.Now()
	results, err := b.Run()
	batched := time.Since(batchStart)
	batchRequests := httpRequests() - before
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil || !rpc.Equal(r.Result, fmt.Sprintf("batch-%d", i)) {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	t.Logf("sequential %v, batched %v (%.1fx)", sequential, batched, float64(sequential)/float64(batched))
	if seqRequests != n || batchRequests != 1 {
		t.Errorf("HTTP requests: %v sequential, %v batched; want %d and 1", seqRequests, batchRequests, n)
	}
}
