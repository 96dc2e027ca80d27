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

// This file implements the dispatch pipeline as a composable interceptor
// chain. The paper's fixed authenticate→authorize→invoke sequence is
// preserved as the default stage order, but each stage is a registered
// Interceptor, so deployments can append their own cross-cutting stages
// (rate limiting, tracing, auditing) without touching core.

// pipelineStage is one registered interceptor; built-in stages carry an
// anchor name so UseBefore can position custom stages relative to them.
type pipelineStage struct {
	name string
	ic   Interceptor
}

// Built-in pipeline anchor names, in registration (outermost-first)
// order. UseBefore inserts custom interceptors immediately before the
// named stage.
const (
	AnchorRecover  = "recover"
	AnchorTrace    = "trace"
	AnchorShed     = "shed"
	AnchorAuth     = "auth"
	AnchorDeadline = "deadline"
	AnchorACL      = "acl"
)

// Use appends interceptors to the dispatch pipeline. Interceptors run in
// registration order, outermost first; the six built-in stages (panic
// recovery, trace/observe, shed, authentication, deadline, ACL
// authorization) are registered at construction, so interceptors added
// afterwards run inside them — after the caller's identity is resolved
// and authorized, and immediately around the method handler.
// Consequently they never see calls the ACL stage denies; audit trails
// for denied attempts belong in the per-method counters, not a
// Use-registered stage (or in a stage installed with UseBefore). Safe to
// call at any time; in-flight dispatches keep the pipeline they started
// with.
func (s *Server) Use(ics ...Interceptor) {
	s.dispatchMu.Lock()
	for _, ic := range ics {
		s.interceptors = append(s.interceptors, pipelineStage{ic: ic})
	}
	s.pipeline = nil // recompose lazily on next dispatch
	s.dispatchMu.Unlock()
}

// UseBefore inserts interceptors immediately before the named built-in
// stage (AnchorRecover, AnchorTrace, AnchorShed, AnchorAuth,
// AnchorDeadline, AnchorACL). A stage installed before AnchorAuth runs
// with the caller's identity still unresolved — the position for IP
// allowlists, request decryption, or connection throttles that must act
// ahead of any database work; one installed before AnchorShed sits just
// inside the trace stage and already sees the call's trace ID. Multiple
// interceptors insert in argument order at the same anchor; repeated
// calls stack outside earlier insertions at that anchor. Unknown anchors
// are an error.
func (s *Server) UseBefore(anchor string, ics ...Interceptor) error {
	if len(ics) == 0 {
		return nil
	}
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	idx := -1
	var anchors []string
	for i, st := range s.interceptors {
		if st.name == "" {
			continue
		}
		if st.name == anchor {
			idx = i
			break
		}
		anchors = append(anchors, st.name)
	}
	if idx < 0 {
		return fmt.Errorf("core: unknown interceptor anchor %q (anchors: %s)", anchor, strings.Join(anchors, ", "))
	}
	ins := make([]pipelineStage, len(ics))
	for i, ic := range ics {
		ins[i] = pipelineStage{ic: ic}
	}
	s.interceptors = append(s.interceptors[:idx], append(ins, s.interceptors[idx:]...)...)
	s.pipeline = nil
	return nil
}

// composedPipeline returns the interceptor chain folded over the terminal
// handler, rebuilding the cached composition after a Use.
func (s *Server) composedPipeline() Handler {
	s.dispatchMu.RLock()
	h := s.pipeline
	s.dispatchMu.RUnlock()
	if h != nil {
		return h
	}
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	if s.pipeline == nil {
		h := Handler(s.invokeMethod)
		for i := len(s.interceptors) - 1; i >= 0; i-- {
			h = s.interceptors[i].ic(h)
		}
		s.pipeline = h
	}
	return s.pipeline
}

// invokeMethod is the terminal pipeline stage: it executes the resolved
// handler and normalizes the result into the codec value model, so that
// the observe stage sees normalization failures as faults too.
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

// panicFault is what a panicking handler's caller receives: the recovery
// stage returns it, and the observe stage records it while the panic is
// still unwinding.
func panicFault(method string) *rpc.Fault {
	return &rpc.Fault{Code: rpc.CodeInternal, Message: fmt.Sprintf("internal error: method %s panicked", method)}
}

// recoverInterceptor converts a handler panic into an RPC fault instead of
// letting it tear down the serving goroutine (and, for multicall
// sub-calls, instead of aborting the rest of the batch).
func (s *Server) recoverInterceptor(next Handler) Handler {
	return func(ctx *Context, params Params) (result any, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.logger.Printf("core: panic in %s: %v\n%s", ctx.methodName, r, debug.Stack())
				result, err = nil, panicFault(ctx.methodName)
			}
		}()
		return next(ctx, params)
	}
}

// observeInterceptor (AnchorTrace) is the pipeline's one observing
// stage. On the way in it establishes the dispatch's trace identity: a
// directly POSTed call adopts a valid inbound X-Clarens-Trace header
// (and the X-Clarens-Trace-Sample force bit) or mints a fresh trace ID;
// multicall sub-calls arrive with their trace and span already derived
// by Invoke and keep them. On the way out one deferred block — which
// also runs when a panic unwinds through it — takes the call's duration
// and outcome once and hands them to every consumer. Sitting just
// inside the recovery stage, it sees every call, including unknown
// methods, ACL denials, shed rejections and panics, so a trace never
// goes dark at a fault.
func (s *Server) observeInterceptor(next Handler) Handler {
	return func(ctx *Context, params Params) (result any, err error) {
		if ctx.span == "" {
			ctx.localRoot = true
			if ctx.trace == "" {
				if ctx.httpReq != nil {
					if t := ctx.httpReq.Header.Get(telemetry.TraceHeader); telemetry.ValidTraceID(t) {
						ctx.trace = t
					}
					if ctx.httpReq.Header.Get(telemetry.SampleHeader) != "" {
						ctx.forceSample = true
					}
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
		start := time.Now()
		returned := false
		defer func() {
			if !returned {
				err = panicFault(ctx.methodName) // overwritten by the recovery stage's own copy
			}
			s.observe(ctx, start, time.Since(start), err)
		}()
		result, err = next(ctx, params)
		returned = true
		return result, err
	}
}

// observe feeds one finished dispatch to its three consumers: the
// telemetry registry (the per-method counters and histograms behind
// /metrics, system.stats and the MonALISA republication), the flight
// recorder, and the request log. A call the shed stage rejected never
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

// shedInterceptor is the overload valve. It gates only top-level
// dispatches (multicall sub-calls ride their parent's admission): while
// the server drains for shutdown, or once Config.MaxInFlight calls are
// already executing, or when the caller's deadline has expired before
// any work was done, it rejects immediately with CodeOverloaded — the
// one fault code that promises the request never executed, so clients
// retry it freely (ideally against another peer). A rejection is marked
// on the Context for the observe stage outside; the fault code alone
// would not do, since a handler may relay a peer's CodeOverloaded.
func (s *Server) shedInterceptor(next Handler) Handler {
	reject := func(ctx *Context, msg string) (any, error) {
		s.shed.Inc()
		ctx.shed = true
		return nil, &rpc.Fault{Code: rpc.CodeOverloaded, Message: msg}
	}
	return func(ctx *Context, params Params) (any, error) {
		if ctx.depth > 0 {
			return next(ctx, params)
		}
		if s.draining.Load() {
			return reject(ctx, "server draining: retry against another peer")
		}
		// Deadline-aware early rejection: if the caller's budget is
		// already spent, executing the call only wastes server capacity
		// on a response nobody is waiting for.
		if dl, ok := ctx.Context.Deadline(); ok && !time.Now().Before(dl) {
			return reject(ctx, "deadline expired before execution")
		}
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if max := s.cfg.MaxInFlight; max > 0 && n > int64(max) {
			return reject(ctx, fmt.Sprintf("server overloaded: %d calls in flight", n-1))
		}
		return next(ctx, params)
	}
}

// authInterceptor resolves the caller's DN and session from the carrying
// HTTP request (access check 1 of the paper's Figure 4). Multicall
// sub-calls and in-process dispatches have no HTTP request and keep the
// identity already on the context.
func (s *Server) authInterceptor(next Handler) Handler {
	return func(ctx *Context, params Params) (any, error) {
		if ctx.httpReq != nil && !s.cfg.DisableAuth {
			ctx.DN, ctx.Session = s.IdentifyRequest(ctx.httpReq)
		}
		return next(ctx, params)
	}
}

// deadlineInterceptor applies the per-method execution deadline: the
// method's own Timeout if set, else the server-wide Config.MethodTimeout.
func (s *Server) deadlineInterceptor(next Handler) Handler {
	return func(ctx *Context, params Params) (any, error) {
		timeout := s.cfg.MethodTimeout
		if ctx.method != nil && ctx.method.Timeout > 0 {
			timeout = ctx.method.Timeout
		}
		if timeout <= 0 {
			return next(ctx, params)
		}
		base := ctx.Context
		bounded, cancel := context.WithTimeout(base, timeout)
		defer cancel()
		ctx.Context = bounded
		defer func() { ctx.Context = base }()
		return next(ctx, params)
	}
}

// aclInterceptor is access check 2: may this caller invoke this method?
// The ACL walk reads the database at each applicable hierarchy level.
// Public methods pass unless some level explicitly denies the caller;
// non-public methods require an explicit allow. Each multicall sub-call
// passes through here independently.
func (s *Server) aclInterceptor(next Handler) Handler {
	return func(ctx *Context, params Params) (any, error) {
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
		return next(ctx, params)
	}
}

// registerBuiltinInterceptors installs the default pipeline. Order
// matters: recovery outermost (a panic anywhere still yields a fault),
// then trace/observe (every call — even one that faults, is shed or
// panics below — carries an ID and is counted, timed and logged once),
// shed, identity, deadline, and authorization. Custom interceptors
// appended later via Use run inside all of these; UseBefore positions
// them against the anchor names registered here.
func (s *Server) registerBuiltinInterceptors() {
	s.dispatchMu.Lock()
	s.interceptors = append(s.interceptors,
		pipelineStage{name: AnchorRecover, ic: s.recoverInterceptor},
		pipelineStage{name: AnchorTrace, ic: s.observeInterceptor},
		pipelineStage{name: AnchorShed, ic: s.shedInterceptor},
		pipelineStage{name: AnchorAuth, ic: s.authInterceptor},
		pipelineStage{name: AnchorDeadline, ic: s.deadlineInterceptor},
		pipelineStage{name: AnchorACL, ic: s.aclInterceptor},
	)
	s.pipeline = nil
	s.dispatchMu.Unlock()
}

// Dispatch runs the full interceptor pipeline and invokes the method. It
// is exported for in-process use by benchmarks and tests; r may be nil
// for pure in-process calls. Cancellation derives from r's context.
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
	return s.run(ctx, req)
}

// Invoke dispatches one call through the full interceptor pipeline using
// an already-established identity — the execution path of each
// system.multicall sub-call. The derived context inherits the parent's
// cancellation, identity, and transport metadata but carries no HTTP
// request, so the auth stage keeps the inherited DN while the ACL stage
// authorizes the sub-method independently.
func (s *Server) Invoke(parent *Context, method string, params []any) *rpc.Response {
	return s.InvokeTrace(parent, "", method, params)
}

// InvokeTrace is Invoke for a sub-call that carries its own trace
// identifier (the multicall entry's optional trace field): a forwarding
// peer batches many jobs into one POST, and each sub-call keeps the
// trace of the request that originated it. An empty or invalid trace
// falls back to the parent's, and the sub-call always becomes a child
// span of the enclosing dispatch.
func (s *Server) InvokeTrace(parent *Context, trace, method string, params []any) *rpc.Response {
	return s.InvokeTraceSample(parent, trace, method, params, false)
}

// InvokeTraceSample is InvokeTrace with an explicit force-sample bit
// (the multicall entry's sample field): a peer forwarding a
// force-sampled trace keeps it force-sampled here too. A sub-call that
// carries a valid foreign trace — one differing from the enclosing
// batch's — becomes that trace's local root on this server, since the
// batch dispatch that wraps it belongs to a different trace and will
// never close this one out.
func (s *Server) InvokeTraceSample(parent *Context, trace, method string, params []any, sample bool) *rpc.Response {
	base := parent.Context
	if base == nil {
		base = context.Background()
	}
	localRoot := false
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
		methodName:  method,
		depth:       parent.depth + 1,
		trace:       trace,
		parentSpan:  parent.span,
		localRoot:   localRoot,
		forceSample: parent.forceSample || sample,
		srv:         s,
	}
	if ctx.trace != "" {
		ctx.span = telemetry.NewSpanID()
	}
	ctx.method, _ = s.registry.lookup(method)
	return s.run(ctx, &rpc.Request{Method: method, Params: params})
}

// faultOf shapes a handler error into the fault the client receives: a
// *rpc.Fault as is, anything else as an application fault.
func faultOf(err error) *rpc.Fault {
	if f, ok := err.(*rpc.Fault); ok {
		return f
	}
	return &rpc.Fault{Code: rpc.CodeApplication, Message: err.Error()}
}

// run feeds one prepared context through the pipeline and shapes the
// outcome into a protocol response.
func (s *Server) run(ctx *Context, req *rpc.Request) *rpc.Response {
	resp := &rpc.Response{ID: req.ID}
	result, err := s.composedPipeline()(ctx, Params(req.Params))
	if err != nil {
		resp.Fault = faultOf(err)
		return resp
	}
	resp.Result = result
	return resp
}
