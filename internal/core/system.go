package core

import (
	"fmt"
	"sync"
	"time"

	"clarens/internal/rpc"
)

// DefaultMaxBatchCalls is the system.multicall sub-call cap applied when
// Config.MaxBatchCalls is zero. One POST buys at most this much dispatch
// work, so an anonymous client cannot amplify a single request into an
// unbounded pipeline loop.
const DefaultMaxBatchCalls = 256

// systemService provides the framework's introspection and session
// management methods. system.list_methods is the method measured in the
// paper's Figure 4; its implementation deliberately scans the database
// rather than the in-memory registry to preserve the measured cost model.
type systemService struct{ s *Server }

func (systemService) Name() string { return "system" }

func (sv systemService) Methods() []Method {
	return []Method{
		{
			Name:   "system.list_methods",
			Help:   "List the names of all methods registered on this server.",
			Public: true,
			Func:   Func0(sv.listMethods),
		},
		{
			Name:   "system.method_help",
			Help:   "Return the help string for a method.",
			Public: true,
			Func:   Func1(sv.methodHelp),
		},
		{
			Name:   "system.method_signature",
			Help:   "Return the signature list for a method.",
			Public: true,
			Func:   Func1(sv.methodSignature),
		},
		{
			Name:   "system.auth",
			Help:   "Establish a server-side session for the TLS-authenticated caller; returns the session token.",
			Public: true,
			Func:   Func0(sv.auth),
		},
		{
			Name:   "system.logout",
			Help:   "Destroy the current session.",
			Public: true,
			Func:   Func0(sv.logout),
		},
		{
			Name:   "system.whoami",
			Help:   "Return the caller's authenticated distinguished name (empty if anonymous).",
			Public: true,
			Func:   Func0(sv.whoami),
		},
		{
			// Hand-written: a typed string result would box "pong" per
			// call, where the literal below is boxed at compile time.
			Name:      "system.ping",
			Help:      "Liveness probe; returns the string \"pong\".",
			Signature: []string{"string"},
			Public:    true,
			Handler:   func(*Context, Params) (any, error) { return "pong", nil },
		},
		{
			Name:   "system.echo",
			Help:   "Return the first parameter unchanged; the trivial method used in cross-framework comparisons.",
			Public: true,
			Func:   Func1(sv.echo),
		},
		{
			// Hand-written for the same reason as system.ping.
			Name:      "system.version",
			Help:      "Return the server version string.",
			Signature: []string{"string"},
			Public:    true,
			Handler:   func(*Context, Params) (any, error) { return Version, nil },
		},
		{
			Name:   "system.time",
			Help:   "Return the server's current UTC time.",
			Public: true,
			Func:   Func0(sv.time),
		},
		{
			Name: "system.stats",
			Help: "Return dispatch counters: requests, faults, uptime seconds, per-method counts and latency quantiles, plus per-service sections (queue depths, peer health).",
			Func: Func0(sv.stats),
		},
		{
			Name:   "system.health",
			Help:   "Liveness and readiness summary: overall status, uptime, version, and the result of each registered health check.",
			Public: true,
			Func:   Func0(sv.health),
		},
		{
			// Hand-written: the parameters are a variadic list of sub-calls.
			Name: "system.multicall",
			Help: "Execute an array of {methodName, params} sub-calls in one request; " +
				"returns one entry per sub-call: a one-element array wrapping the result, or a {faultCode, faultString} struct.",
			Signature: []string{"array array"},
			Public:    true,
			Handler:   sv.multicall,
		},
	}
}

func (sv systemService) listMethods(ctx *Context) ([]any, error) {
	// The Figure 4 workload: all registered method names, serialized as
	// an array of >30 strings. The database scan and sort are cached
	// behind the methods bucket generation, so steady-state requests pay
	// two map lookups and zero allocations here.
	_, norm := sv.s.registry.listCached()
	return norm, nil
}

func (sv systemService) methodHelp(ctx *Context, name string) (string, error) {
	m, ok := sv.s.registry.lookup(name)
	if !ok {
		return "", &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: "no such method " + name}
	}
	return m.Help, nil
}

func (sv systemService) methodSignature(ctx *Context, name string) ([]string, error) {
	m, ok := sv.s.registry.lookup(name)
	if !ok {
		return nil, &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: "no such method " + name}
	}
	return m.Signature, nil
}

func (sv systemService) auth(ctx *Context) (string, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return "", err
	}
	if ctx.Session != nil {
		// Re-authentication with a live session just renews it.
		if err := sv.s.sessions.Touch(ctx.Session.ID); err == nil {
			return ctx.Session.ID, nil
		}
	}
	sess, err := sv.s.sessions.New(ctx.DN)
	if err != nil {
		return "", err
	}
	return sess.ID, nil
}

func (sv systemService) logout(ctx *Context) (bool, error) {
	if ctx.Session == nil {
		return false, nil
	}
	return true, sv.s.sessions.Delete(ctx.Session.ID)
}

func (sv systemService) whoami(ctx *Context) (string, error) {
	return ctx.DN.String(), nil
}

func (systemService) echo(ctx *Context, v Opt[any]) (any, error) { return v.Or(nil), nil }

func (systemService) time(ctx *Context) (time.Time, error) {
	return time.Now().UTC(), nil
}

// multicall executes a batch of sub-calls from one POST (the boxcarring
// pattern the paper's Python/ROOT clients used to amortize round trips).
// Every sub-call runs through the full request path with the
// batch caller's identity — per-sub-call ACL enforcement — and faults are
// isolated: one failing entry never aborts the rest.
//
// With Config.BatchParallelism > 1, independent sub-calls fan out across
// a bounded worker pool; each worker writes its result into the slot of
// the sub-call's submission index, so the response order is always the
// request order no matter how execution interleaves.
func (sv systemService) multicall(ctx *Context, p Params) (any, error) {
	entries, fault := rpc.MulticallEntries(p)
	if fault != nil {
		return nil, fault
	}
	limit := sv.s.cfg.MaxBatchCalls
	if limit == 0 {
		limit = DefaultMaxBatchCalls
	}
	if limit > 0 && len(entries) > limit {
		return nil, &rpc.Fault{
			Code:    rpc.CodeInvalidParams,
			Message: fmt.Sprintf("multicall batch of %d exceeds the %d sub-call limit", len(entries), limit),
		}
	}
	out := make([]any, len(entries))
	workers := sv.s.cfg.BatchParallelism
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers <= 1 {
		// Sequential fallback (BatchParallelism 0/1): strict in-order
		// execution for clients batching dependent calls.
		for i, entry := range entries {
			out[i] = sv.runSubCall(ctx, entry)
		}
		return out, nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = sv.runSubCall(ctx, entries[i])
			}
		}()
	}
	for i := range entries {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, nil
}

// runSubCall executes one multicall entry and shapes the outcome into the
// wire convention (one-element array on success, fault struct otherwise).
func (sv systemService) runSubCall(ctx *Context, entry any) any {
	if err := ctx.Err(); err != nil {
		// Request cancelled or deadline hit: fault the remaining
		// entries rather than executing them against a dead client.
		return rpc.MulticallFault(&rpc.Fault{Code: rpc.CodeInternal, Message: "multicall aborted: " + err.Error()})
	}
	call, fault := rpc.ParseSubCall(entry)
	if fault == nil && call.Method == rpc.MulticallMethod {
		fault = &rpc.Fault{Code: rpc.CodeInvalidRequest, Message: "recursive system.multicall is not allowed"}
	}
	if fault != nil {
		return rpc.MulticallFault(fault)
	}
	result, err := sv.s.invoke(ctx, call)
	if err != nil {
		return rpc.MulticallFault(faultOf(err))
	}
	return rpc.MulticallValue(result)
}

// health is the public liveness/readiness probe: overall status ("ok"
// or "degraded"), uptime, version, and each registered check's result.
func (sv systemService) health(ctx *Context) (map[string]any, error) {
	ok, checks := sv.s.runHealthChecks()
	status := "ok"
	if !ok {
		status = "degraded"
	}
	return map[string]any{
		"status":         status,
		"version":        Version,
		"uptime_seconds": int(time.Since(sv.s.started).Seconds()),
		"time":           time.Now().UTC(),
		"checks":         checks,
	}, nil
}

func (sv systemService) stats(ctx *Context) (map[string]any, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	// Totals, per-method counts and latency quantiles all come from one
	// snapshot of the telemetry registry (the numbers /metrics exposes).
	var requests, faults uint64
	perMethod := make(map[string]any)
	latency := make(map[string]any)
	for _, m := range sv.s.telemetry.MethodSnapshots() {
		requests += m.Requests
		faults += m.Faults
		perMethod[m.Method] = int(m.Requests)
		latency[m.Method] = map[string]any{
			"count":  int(m.Requests),
			"faults": int(m.Faults),
			"p50_ms": float64(m.Latency.Quantile(0.5)) / float64(time.Millisecond),
			"p95_ms": float64(m.Latency.Quantile(0.95)) / float64(time.Millisecond),
			"p99_ms": float64(m.Latency.Quantile(0.99)) / float64(time.Millisecond),
		}
	}
	out := map[string]any{
		"requests":       int(requests),
		"faults":         int(faults),
		"uptime_seconds": int(time.Since(sv.s.started).Seconds()),
		"methods":        sv.s.registry.count(),
		"sessions":       sv.s.sessions.Count(),
		"by_method":      perMethod,
		"latency":        latency,
	}
	// Service-contributed sections: job queue depths, artifact bytes,
	// federation peer health — whatever the assembly registered.
	for name, section := range sv.s.statsSections() {
		out[name] = section
	}
	return out, nil
}
