package core

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"clarens/internal/acl"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// This file is the request path of the paper's Figure 4: "two access
// checks and a method call". dispatch runs the built-in steps in order as
// straight-line code — panic recovery, trace and observation, load
// shedding, authentication, the method deadline and ACL authorization —
// and then the Use chain, which wraps only the method invocation.

// Use appends interceptors to the chain around the method invocation.
// They run in registration order, outermost first, after every built-in
// step: the caller's identity is resolved and authorized and the method
// deadline is on the context, so they never see calls that were shed or
// denied. Unknown methods do reach them (the innermost step faults). A
// Use stage may still refuse a call, for instance by ctx.RemoteAddr;
// the session lookup has run by then. A panic in a stage is recovered
// like a handler's. Safe to call at any time; in-flight dispatches keep
// the chain they started with.
func (s *Server) Use(ics ...Interceptor) {
	s.useMu.Lock()
	defer s.useMu.Unlock()
	s.uses = append(s.uses, ics...)
	h := Handler(s.invokeMethod)
	for i := len(s.uses) - 1; i >= 0; i-- {
		h = s.uses[i](h)
	}
	s.chain.Store(&h)
}

// invokeMethod is the innermost step: it executes the resolved handler
// and normalizes the result into the codec value model, so that the
// observation sees normalization failures as faults too.
func (s *Server) invokeMethod(ctx *Context, params Params) (any, error) {
	if ctx.method == nil {
		return nil, &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: fmt.Sprintf("no such method %q", ctx.methodName)}
	}
	result, err := ctx.method.Handler(ctx, params)
	if err != nil {
		return nil, err
	}
	norm, err := rpc.Normalize(result)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInternal, Message: fmt.Sprintf("unserializable result: %v", err)}
	}
	return norm, nil
}

// dispatch runs one prepared call through the request path and returns
// the method's result or the error its caller receives.
func (s *Server) dispatch(ctx *Context, params Params) (result any, err error) {
	// Trace identity. A directly dispatched call adopts a valid inbound
	// X-Clarens-Trace header (and the X-Clarens-Trace-Sample force bit)
	// or mints a fresh trace ID; a multicall sub-call arrives with its
	// trace and span already derived by invoke and keeps them.
	if ctx.span == "" {
		ctx.localRoot = true
		if ctx.trace == "" {
			if ctx.httpReq != nil {
				if t := ctx.httpReq.Header.Get(telemetry.TraceHeader); telemetry.ValidTraceID(t) {
					ctx.trace = t
				}
				ctx.forceSample = ctx.httpReq.Header.Get(telemetry.SampleHeader) != ""
			}
			if ctx.trace == "" {
				ctx.trace = telemetry.NewTraceID()
			}
		}
		ctx.span = telemetry.NewSpanID()
	}
	if ctx.method != nil && ctx.method.TraceSample {
		ctx.forceSample = true
	}

	// Recovery and observation. A panic anywhere below — a handler, a
	// Use stage — becomes an internal fault instead of tearing down the
	// serving goroutine or the rest of a multicall batch. Every call,
	// whatever its outcome, is then counted, timed, traced and logged
	// once, so a trace never goes dark at a fault.
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.logger.Printf("core: panic in %s: %v\n%s", ctx.methodName, r, debug.Stack())
			result, err = nil, &rpc.Fault{Code: rpc.CodeInternal, Message: fmt.Sprintf("internal error: method %s panicked", ctx.methodName)}
		}
		s.observe(ctx, start, time.Since(start), err)
	}()

	// Load shedding, for top-level calls only: multicall sub-calls ride
	// their batch's admission. While the server drains, once the caller's
	// deadline has passed, or beyond Config.MaxInFlight executing calls,
	// the call is refused with CodeOverloaded — the one fault code that
	// promises the request never executed, so clients retry it freely.
	// ctx.shed keeps the refusal out of the registry; the fault code
	// alone would not do, since a handler may relay a peer's
	// CodeOverloaded.
	if ctx.depth == 0 {
		refusal := ""
		if s.draining.Load() {
			refusal = "server draining: retry against another peer"
		} else if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			refusal = "deadline expired before execution"
		} else {
			n := s.inflight.Add(1)
			defer s.inflight.Add(-1)
			if max := s.cfg.MaxInFlight; max > 0 && n > int64(max) {
				refusal = fmt.Sprintf("server overloaded: %d calls in flight", n-1)
			}
		}
		if refusal != "" {
			s.shed.Inc()
			ctx.shed = true
			return nil, &rpc.Fault{Code: rpc.CodeOverloaded, Message: refusal}
		}
	}

	// Access check 1: the caller's DN and session from the carrying
	// HTTP request. Sub-calls and in-process dispatches keep the identity
	// already on the context.
	if ctx.httpReq != nil && !s.cfg.DisableAuth {
		ctx.DN, ctx.Session = s.IdentifyRequest(ctx.httpReq)
	}

	// The method's own Timeout if set, else Config.MethodTimeout.
	timeout := s.cfg.MethodTimeout
	if ctx.method != nil && ctx.method.Timeout > 0 {
		timeout = ctx.method.Timeout
	}
	if timeout > 0 {
		base := ctx.Context
		bounded, cancel := context.WithTimeout(base, timeout)
		ctx.Context = bounded
		defer func() {
			cancel()
			ctx.Context = base
		}()
	}

	// Access check 2: may this caller invoke this method? Public methods
	// pass unless some ACL level explicitly denies the caller; the rest
	// need an explicit allow. Each multicall sub-call is checked on its
	// own.
	if !s.cfg.DisableAuth && ctx.method != nil {
		decision, level := s.methACL.AuthorizeDetail(ctx.methodName, ctx.DN)
		explicitDeny := decision == acl.Deny && level != ""
		allowed := decision == acl.Allow || (ctx.method.Public && !explicitDeny)
		if !allowed {
			return nil, &rpc.Fault{
				Code:    rpc.CodeAccessDenied,
				Message: fmt.Sprintf("access denied: method %s for %q", ctx.methodName, ctx.DN.String()),
			}
		}
	}

	return (*s.chain.Load())(ctx, params)
}

// observe feeds one finished dispatch to its three consumers: the
// telemetry registry (the per-method counters and histograms behind
// /metrics, system.stats and the MonALISA republication), the flight
// recorder, and the request log. A call load shedding rejected never
// executed, so it is traced and logged but kept out of the registry,
// whose latency histograms would otherwise fill with sub-microsecond
// refusals.
func (s *Server) observe(ctx *Context, start time.Time, dur time.Duration, err error) {
	if !ctx.shed {
		s.telemetry.ObserveRPC(ctx.methodName, err != nil, dur)
	}
	st, lg := s.spans, s.requestLog
	if st == nil && lg == nil {
		return
	}
	sp := telemetry.Span{
		Trace:    ctx.trace,
		Span:     ctx.span,
		Parent:   ctx.parentSpan,
		Method:   ctx.methodName,
		Peer:     ctx.RemoteAddr,
		Start:    start,
		Duration: dur,
		Depth:    ctx.depth,
	}
	if err != nil {
		sp.Fault = faultOf(err).Code
	}
	if !ctx.DN.IsZero() {
		sp.DN = ctx.DN.String()
	}
	if st != nil {
		st.Record(sp, ctx.localRoot, ctx.forceSample)
	}
	if lg == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("method", sp.Method),
		slog.String("trace", sp.Trace),
		slog.String("span", sp.Span),
		slog.String("proto", ctx.Protocol),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
	)
	if sp.Parent != "" {
		attrs = append(attrs, slog.String("parent_span", sp.Parent), slog.Int("depth", sp.Depth))
	}
	if sp.DN != "" {
		attrs = append(attrs, slog.String("dn", sp.DN))
	}
	if sp.Peer != "" {
		attrs = append(attrs, slog.String("remote", sp.Peer))
	}
	if err != nil {
		attrs = append(attrs, slog.Int("fault", sp.Fault), slog.String("error", err.Error()))
	}
	level := slog.LevelInfo
	msg := "rpc"
	// Slow-request escalation: a local-root dispatch over the
	// tail-sampling threshold warns with its span breakdown inline,
	// so slow traces are findable without scraping the store.
	if st != nil && ctx.localRoot && dur >= st.Slow() {
		level = slog.LevelWarn
		msg = "slow rpc"
		attrs = append(attrs, slog.String("spans", spanBreakdown(st.Trace(sp.Trace))))
	}
	lg.LogAttrs(ctx.Context, level, msg, attrs...)
}

// spanBreakdown renders a trace's recorded spans as one compact string
// ("method dur_ms; ...", depth-indented) for inline slow-request logs.
func spanBreakdown(spans []telemetry.Span) string {
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteString("; ")
		}
		for d := 0; d < sp.Depth; d++ {
			b.WriteByte('>')
		}
		fmt.Fprintf(&b, "%s %.1fms", sp.Method, float64(sp.Duration)/float64(time.Millisecond))
		if sp.Fault != 0 {
			fmt.Fprintf(&b, " fault=%d", sp.Fault)
		}
	}
	return b.String()
}

// Dispatch runs one call through the request path. It is exported for
// in-process use by benchmarks and tests; r may be nil for pure
// in-process calls. Cancellation derives from r's context.
func (s *Server) Dispatch(r *http.Request, protocol string, req *rpc.Request) *rpc.Response {
	base := context.Background()
	if r != nil {
		base = r.Context()
	}
	return s.DispatchContext(base, r, protocol, req)
}

// DispatchContext is Dispatch with an explicit cancellation context,
// which handlers observe through Context.Done/Err/Deadline.
func (s *Server) DispatchContext(base context.Context, r *http.Request, protocol string, req *rpc.Request) *rpc.Response {
	if base == nil {
		base = context.Background()
	}
	ctx := &Context{
		Context:    base,
		Protocol:   protocol,
		methodName: req.Method,
		httpReq:    r,
		srv:        s,
	}
	if r != nil {
		ctx.RemoteAddr = r.RemoteAddr
	}
	ctx.method, _ = s.registry.lookup(req.Method)
	resp := &rpc.Response{ID: req.ID}
	if result, err := s.dispatch(ctx, Params(req.Params)); err != nil {
		resp.Fault = faultOf(err)
	} else {
		resp.Result = result
	}
	return resp
}

// invoke dispatches one system.multicall sub-call under the identity the
// enclosing dispatch established. The derived context inherits the
// parent's cancellation, identity and transport metadata but carries no
// HTTP request, so the sub-method is authorized on its own without a
// second session lookup. The sub-call is a child span of the enclosing
// dispatch. It keeps the trace the entry carries (a forwarding peer
// batches many jobs into one POST, each under the trace that originated
// it), else the parent's; a valid foreign trace makes the sub-call that
// trace's local root here, since the batch belongs to another trace and
// will never close this one out. The entry's sample bit force-samples it.
func (s *Server) invoke(parent *Context, call rpc.SubCall) (any, error) {
	base := parent.Context
	if base == nil {
		base = context.Background()
	}
	trace, localRoot := call.Trace, false
	if !telemetry.ValidTraceID(trace) {
		trace = parent.trace
	} else if trace != parent.trace {
		localRoot = true
	}
	ctx := &Context{
		Context:     base,
		DN:          parent.DN,
		Session:     parent.Session,
		Protocol:    parent.Protocol,
		RemoteAddr:  parent.RemoteAddr,
		methodName:  call.Method,
		depth:       parent.depth + 1,
		trace:       trace,
		parentSpan:  parent.span,
		localRoot:   localRoot,
		forceSample: parent.forceSample || call.Sample,
		srv:         s,
	}
	if ctx.trace != "" {
		ctx.span = telemetry.NewSpanID()
	}
	ctx.method, _ = s.registry.lookup(call.Method)
	return s.dispatch(ctx, Params(call.Params))
}

// faultOf shapes a handler error into the fault the client receives: a
// *rpc.Fault as is, anything else as an application fault.
func faultOf(err error) *rpc.Fault {
	if f, ok := err.(*rpc.Fault); ok {
		return f
	}
	return &rpc.Fault{Code: rpc.CodeApplication, Message: err.Error()}
}
