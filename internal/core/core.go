// Package core implements the Clarens web-service framework itself
// (paper §2, Figure 1): the service registry, the per-request
// authentication and access-control pipeline, multi-protocol RPC dispatch
// (XML-RPC, SOAP, JSON-RPC), and the HTTP/TLS server glue that the
// Apache/mod_python (PClarens) and Tomcat/AXIS (JClarens) containers
// provided in the original system.
//
// Every POSTed request follows the paper's measured path: decode, a
// database lookup answering "are these credentials associated with a
// current session", a hierarchical ACL walk answering "may this caller
// invoke this method", handler execution, and response serialization.
package core

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"clarens/internal/acl"
	"clarens/internal/db"
	"clarens/internal/pki"
	"clarens/internal/rpc"
	"clarens/internal/session"
	"clarens/internal/telemetry"
	"clarens/internal/vo"
)

// Version identifies the framework build; reported by system.version.
const Version = "clarens-go/1.0 (ICPPW05 reproduction)"

// Handler is the signature of a service method implementation.
type Handler func(ctx *Context, params Params) (any, error)

// Interceptor wraps a Handler with cross-cutting behavior (rate limiting,
// auditing, an address allowlist). Server.Use composes interceptors
// around the method invocation, the first registered outermost. They run
// after the built-in steps of every dispatch — recovery, tracing,
// shedding, authentication, the method deadline and the ACL check — so
// they see each call that cleared authorization, including every
// sub-call of a system.multicall batch, with the caller's identity
// resolved.
type Interceptor func(next Handler) Handler

// Method describes one invocable web-service method. A method sets
// either Func, a typed Go function whose parameter and result types
// become the Handler and the Signature, or Handler and Signature by
// hand: the form for variadic methods, parameters a typed function
// cannot express, and services outside this module.
type Method struct {
	// Name is the full dotted method name, e.g. "file.read". The paper:
	// "Methods have a natural hierarchical structure ... a depth of two or
	// three levels is most common, e.g. module.method".
	Name string
	// Help is the human-readable description served by system.method_help.
	Help string
	// Signature lists "<return-type> <param-type>..." entries served by
	// system.method_signature. Derived from Func when that is set.
	Signature []string
	// Public methods may be invoked without an Allow decision from the
	// ACLs (an explicit Deny still blocks them). The authentication and
	// authorization pipeline runs regardless, preserving the cost model of
	// the paper's Figure 4 measurement.
	Public bool
	// Timeout, when positive, bounds each invocation of this method: the
	// handler's context carries the deadline and is cancelled when it
	// expires. Zero falls back to the server-wide Config.MethodTimeout.
	Timeout time.Duration
	// TraceSample force-samples every trace that dispatches this method
	// into the span store, regardless of latency or outcome — for rare,
	// high-value operations (e.g. admin mutations) that should always
	// leave a flight record.
	TraceSample bool
	// Handler executes the method. Derived from Func when that is set.
	Handler Handler
	// Func is the method declared as a typed function (Func0 … Func4).
	Func Typed
}

// Service is a named bundle of methods registered as a unit; the module
// part of each method name must equal the service name.
type Service interface {
	Name() string
	Methods() []Method
}

// Context carries per-request identity and framework access into handlers.
// It embeds the context.Context carried from the HTTP request, so handlers
// observe client disconnects and per-method deadlines directly via Done(),
// Err(), and Deadline().
type Context struct {
	// Context is the request-scoped cancellation context. It is never nil
	// for dispatched calls: it derives from the HTTP request (cancelled
	// when the client disconnects) and, when a method timeout applies,
	// carries the per-method deadline.
	context.Context

	// DN is the authenticated caller identity (empty when anonymous).
	DN pki.DN
	// Session is the current session, or nil.
	Session *session.Session
	// Protocol is the codec name that carried the request.
	Protocol string
	// RemoteAddr is the network peer, when known.
	RemoteAddr string

	// method is the resolved registry entry (nil when the requested name
	// is unknown; the method invocation then faults).
	method *Method
	// methodName is the requested dotted method name, kept separately from
	// method so interceptors can label unknown-method calls too.
	methodName string
	// httpReq is the carrying HTTP request; nil for in-process dispatch
	// and for multicall sub-calls (which inherit the parent's identity).
	httpReq *http.Request
	// depth counts multicall nesting (0 for a directly POSTed call).
	depth int

	// trace is the request's trace identifier: accepted from the
	// X-Clarens-Trace header (or a multicall sub-call's trace field) when
	// valid, minted otherwise. span identifies this dispatch within the
	// trace; parentSpan is the enclosing dispatch's span for multicall
	// sub-calls (empty at the trace root on this server).
	trace      string
	span       string
	parentSpan string

	// localRoot marks the span that decides its trace's tail-sampling
	// fate on this server: a top-level dispatch, or a multicall sub-call
	// that carried its own (foreign) trace ID — a forwarded job riding a
	// peer's batch.
	localRoot bool
	// forceSample promotes the trace into the span store unconditionally:
	// set by the X-Clarens-Trace-Sample header, a sub-call's sample flag,
	// or the method's TraceSample bit.
	forceSample bool
	// shed is set when load shedding rejects the call unexecuted; the
	// observation then keeps it out of the per-method counters.
	shed bool

	srv *Server
}

// Server returns the owning server, giving service implementations access
// to the framework managers.
func (c *Context) Server() *Server { return c.srv }

// MethodName returns the dotted name of the method being dispatched (the
// requested name even when it resolved to no registered method).
func (c *Context) MethodName() string { return c.methodName }

// MethodInfo returns the resolved registry entry, or nil when the
// requested method does not exist.
func (c *Context) MethodInfo() *Method { return c.method }

// HTTPRequest returns the carrying HTTP request, or nil for in-process
// dispatch and multicall sub-calls.
func (c *Context) HTTPRequest() *http.Request { return c.httpReq }

// CallDepth reports multicall nesting: 0 for a directly POSTed call, 1
// for a sub-call executed inside a system.multicall batch.
func (c *Context) CallDepth() int { return c.depth }

// TraceID returns the request's trace identifier: the inbound
// X-Clarens-Trace value when the caller supplied a valid one, a minted
// 128-bit hex ID otherwise. Multicall sub-calls share the batch's trace
// unless the sub-call entry carried its own (a forwarding peer stitching
// per-job traces through one batched POST). Set at the start of
// dispatch, before any Use stage runs.
func (c *Context) TraceID() string { return c.trace }

// SpanID identifies this dispatch within its trace; each multicall
// sub-call gets its own span.
func (c *Context) SpanID() string { return c.span }

// ParentSpanID returns the enclosing dispatch's span for multicall
// sub-calls, or "" at the trace root on this server.
func (c *Context) ParentSpanID() string { return c.parentSpan }

// ForceSampled reports whether this dispatch's trace is being
// force-sampled into the span store (sample header, sub-call sample
// flag, or per-method TraceSample).
func (c *Context) ForceSampled() bool { return c.forceSample }

// Authenticated reports whether the caller presented a valid identity.
func (c *Context) Authenticated() bool { return !c.DN.IsZero() }

// RequireAuthenticated returns a not-authorized fault for anonymous callers.
func (c *Context) RequireAuthenticated() error {
	if c.DN.IsZero() {
		return &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "authentication required"}
	}
	return nil
}

// RequireServerAdmin returns a fault unless the caller is in the root
// admins group.
func (c *Context) RequireServerAdmin() error {
	if err := c.RequireAuthenticated(); err != nil {
		return err
	}
	if !c.srv.VO().IsServerAdmin(c.DN) {
		return &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "server administrator privileges required"}
	}
	return nil
}

// Params wraps positional RPC parameters with typed accessors. All
// accessors return rpc faults suitable for returning to the client.
type Params []any

func (p Params) arg(i int) (any, error) {
	if i < 0 || i >= len(p) {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("missing parameter %d", i)}
	}
	return p[i], nil
}

// get reads parameter i as a T under rpc.As, the rule the client's
// typed results follow too.
func get[T any](p Params, i int) (T, error) {
	v, err := p.arg(i)
	if err != nil {
		var zero T
		return zero, err
	}
	t, err := rpc.As[T](v)
	if err == nil {
		return t, nil
	}
	te := err.(*rpc.TypeError)
	msg := fmt.Sprintf("parameter %d: want %s, got %T", i, te.Want, te.Got)
	if te.Index >= 0 {
		msg = fmt.Sprintf("parameter %d[%d]: want %s, got %T", i, te.Index, te.Want, te.Got)
	}
	return t, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: msg}
}

// String returns parameter i as a string.
func (p Params) String(i int) (string, error) { return get[string](p, i) }

// Int returns parameter i as an int (accepting int64 and exact float64s,
// which JSON-RPC clients may send).
func (p Params) Int(i int) (int, error) { return get[int](p, i) }

// Bool returns parameter i as a bool (accepting an exact 0 or 1).
func (p Params) Bool(i int) (bool, error) { return get[bool](p, i) }

// Bytes returns parameter i as binary data (accepting strings).
func (p Params) Bytes(i int) ([]byte, error) { return get[[]byte](p, i) }

// StringSlice returns parameter i as a list of strings.
func (p Params) StringSlice(i int) ([]string, error) { return get[[]string](p, i) }

// OptString returns parameter i as a string, or def if absent.
func (p Params) OptString(i int, def string) (string, error) {
	if i >= len(p) {
		return def, nil
	}
	return p.String(i)
}

// OptInt returns parameter i as an int, or def if absent.
func (p Params) OptInt(i int, def int) (int, error) {
	if i >= len(p) {
		return def, nil
	}
	return p.Int(i)
}

// registry holds the method table. Method *names* are additionally
// mirrored into the database so that system.list_methods performs a real
// database scan, matching the measured cost in the paper's Figure 4
// ("each request incurring a database lookup for all registered methods
// in the server") — but the scan result is cached behind the bucket's
// generation counter, so the scan and sort run once per registration
// epoch instead of once per request.
type registry struct {
	mu      sync.RWMutex
	methods map[string]*Method
	store   *db.Store

	listGen   uint64
	listNames []string // sorted method names; shared, do not modify
	listNorm  []any    // the same names pre-normalized for the codecs
}

const methodsBucket = "methods"

func newRegistry(store *db.Store) *registry {
	return &registry{methods: make(map[string]*Method), store: store}
}

func (r *registry) register(svc Service) error {
	name := svc.Name()
	if name == "" {
		return fmt.Errorf("core: service has empty name")
	}
	methods := svc.Methods()
	if len(methods) == 0 {
		return fmt.Errorf("core: service %q has no methods", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range methods {
		m := methods[i]
		if !strings.HasPrefix(m.Name, name+".") {
			return fmt.Errorf("core: method %q does not belong to service %q", m.Name, name)
		}
		if m.Func.handler != nil {
			if m.Handler != nil || m.Signature != nil {
				return fmt.Errorf("core: method %q sets both Func and Handler/Signature", m.Name)
			}
			m.Handler, m.Signature = m.Func.handler, m.Func.signature
		}
		if m.Handler == nil {
			return fmt.Errorf("core: method %q has no handler", m.Name)
		}
		if _, dup := r.methods[m.Name]; dup {
			return fmt.Errorf("core: method %q registered twice", m.Name)
		}
		r.methods[m.Name] = &m
		if err := r.store.PutJSON(methodsBucket, m.Name, map[string]any{
			"help":      m.Help,
			"signature": m.Signature,
			"public":    m.Public,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (r *registry) lookup(name string) (*Method, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.methods[name]
	return m, ok
}

// listFromDB returns the registered method names, sorted, from the
// database-backed path used by system.list_methods. The scan is cached:
// a hit is two map reads; a new Register bumps the methods bucket
// generation and the next call rescans. The returned slice is shared —
// callers must not modify it.
func (r *registry) listFromDB() []string {
	names, _ := r.listCached()
	return names
}

// listCached returns the cached (names, normalized) pair, rebuilding when
// the methods bucket generation moved. The generation is read before the
// scan, so a racing registration at worst causes one extra rescan, never
// a stale listing.
func (r *registry) listCached() ([]string, []any) {
	gen := r.store.Generation(methodsBucket)
	r.mu.RLock()
	if r.listGen == gen && r.listNames != nil {
		names, norm := r.listNames, r.listNorm
		r.mu.RUnlock()
		return names, norm
	}
	r.mu.RUnlock()
	names := r.store.Keys(methodsBucket, "")
	norm := make([]any, len(names))
	for i, n := range names {
		norm[i] = n
	}
	r.mu.Lock()
	r.listGen, r.listNames, r.listNorm = gen, names, norm
	r.mu.Unlock()
	return names, norm
}

func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.methods)
}

// Stats is the dispatch-count view of the telemetry registry: it stores
// nothing, so it cannot disagree with system.stats or /metrics.
type Stats struct{ reg *telemetry.Registry }

// Snapshot totals the registry's per-method request and fault counters.
func (s Stats) Snapshot() (requests, faults uint64, byMethod map[string]uint64) {
	methods := s.reg.MethodSnapshots()
	byMethod = make(map[string]uint64, len(methods))
	for _, m := range methods {
		requests += m.Requests
		faults += m.Faults
		byMethod[m.Method] = m.Requests
	}
	return requests, faults, byMethod
}

// sortedMethodNames sorts in place and returns names.
func sortedMethodNames(names []string) []string {
	sort.Strings(names)
	return names
}

// ensure interfaces stay in sync
var (
	_ acl.GroupResolver = (*vo.Manager)(nil)
)
