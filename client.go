package clarens

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clarens/internal/core"
	"clarens/internal/jobsvc"
	"clarens/internal/pki"
	"clarens/internal/resilience"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/telemetry"
)

// Client invokes methods on a Clarens server over any of the three wire
// protocols. It is safe for concurrent use; calls share a keep-alive
// connection pool sized for the paper's asynchronous workloads.
type Client struct {
	url       string
	codec     rpc.Codec
	transport *http.Transport
	http      *http.Client
	retry     resilience.Policy
	breaker   *resilience.Breaker // nil unless armed via WithBreaker

	sessionMu   sync.RWMutex
	session     string
	trace       string
	traceSample bool

	// conns counts connection-layer events observed via httptrace on
	// every RPC round trip; connTrace is the shared trace installed on
	// each request context (httptrace callbacks may run concurrently, so
	// everything it touches is atomic).
	conns     connStats
	connTrace *httptrace.ClientTrace

	nextID atomic.Int64
}

// connStats holds the client's connection-layer counters.
type connStats struct {
	opened     atomic.Int64
	reused     atomic.Int64
	handshakes atomic.Int64
	resumed    atomic.Int64
	http2      atomic.Int64
}

// ConnStats is a snapshot of the client's connection-layer counters:
// how often calls rode an existing pooled connection versus dialing,
// and how often a new TLS connection resumed from a cached session
// ticket versus paying a full handshake. The h2 count shows whether
// multiplexing is actually negotiated.
type ConnStats struct {
	// Opened counts connections established (a call that could not use
	// the pool); Reused counts calls served over an existing connection.
	Opened, Reused int64
	// Handshakes counts TLS handshakes completed; Resumed is the subset
	// restored from a session ticket without a certificate re-exchange.
	Handshakes, Resumed int64
	// HTTP2 counts handshakes that negotiated "h2" via ALPN.
	HTTP2 int64
}

// ConnStats returns a snapshot of the client's connection-layer
// counters (see ConnStats). Counters cover RPC calls and HTTP file
// fetches issued through this client.
func (c *Client) ConnStats() ConnStats {
	return ConnStats{
		Opened:     c.conns.opened.Load(),
		Reused:     c.conns.reused.Load(),
		Handshakes: c.conns.handshakes.Load(),
		Resumed:    c.conns.resumed.Load(),
		HTTP2:      c.conns.http2.Load(),
	}
}

// TraceHeader is the HTTP header carrying a request's trace identifier
// (see Client.SetTrace and ContextWithTrace). Servers adopt a valid
// inbound value and mint one otherwise, so a caller that sets it can
// follow its request through every server it touches.
const TraceHeader = telemetry.TraceHeader

// SampleHeader is the HTTP header that force-samples a request's trace
// into the server's flight recorder (see WithTraceSample): the whole
// trace is retained regardless of latency or outcome, retrievable via
// `clarens trace <id>` or trace.get.
const SampleHeader = telemetry.SampleHeader

// NewTraceID mints a fresh 128-bit trace identifier, for callers that
// want to stamp and correlate their own requests.
func NewTraceID() string { return telemetry.NewTraceID() }

// traceCtxKey carries a per-call trace ID override in a context.
type traceCtxKey struct{}

// ContextWithTrace returns a context that stamps the given trace ID on
// every call issued with it (CallCtx, Batch.RunCtx), overriding the
// client-level trace. Invalid IDs are dropped server-side.
func ContextWithTrace(ctx context.Context, trace string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, trace)
}

// sessionCtxKey carries a per-call session-token override in a context.
type sessionCtxKey struct{}

// ContextWithSession returns a context that presents the given session
// token on every call issued with it (CallCtx, Batch.RunCtx), overriding
// the client-level session. It lets one pooled, multiplexed client carry
// calls for many identities concurrently — the federation uses it to run
// delegated per-owner traffic over a single connection per peer instead
// of serializing on SetSession.
func ContextWithSession(ctx context.Context, token string) context.Context {
	return context.WithValue(ctx, sessionCtxKey{}, token)
}

// ClientOption configures Dial.
type ClientOption func(*clientOptions)

type clientOptions struct {
	protocol    string
	identity    *pki.Identity
	rootCAs     *x509.CertPool
	timeout     time.Duration
	session     string
	trace       string
	traceSample bool
	maxConns    int
	insecureTLS bool
	http2       bool
	attempts    int
	breaker     bool
	breakerCfg  resilience.BreakerConfig
	dial        func(network, addr string) (net.Conn, error)
}

// WithProtocol selects "xmlrpc" (default), "jsonrpc", or "soap".
func WithProtocol(name string) ClientOption {
	return func(o *clientOptions) { o.protocol = name }
}

// WithIdentity presents a client certificate (user or proxy) over TLS.
func WithIdentity(id *Identity) ClientOption {
	return func(o *clientOptions) { o.identity = id }
}

// WithRootCAs sets the trust anchors for verifying the server.
func WithRootCAs(pool *x509.CertPool) ClientOption {
	return func(o *clientOptions) { o.rootCAs = pool }
}

// WithTimeout bounds each HTTP call (default 30s).
func WithTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.timeout = d }
}

// WithSession presents an existing session token.
func WithSession(id string) ClientOption {
	return func(o *clientOptions) { o.session = id }
}

// WithTrace stamps every call with the given trace identifier (the
// X-Clarens-Trace header), so all requests from this client correlate
// under one trace in the servers' logs.
func WithTrace(id string) ClientOption {
	return func(o *clientOptions) { o.trace = id }
}

// WithTraceSample marks every call with the X-Clarens-Trace-Sample
// header, force-sampling its trace into the server's flight recorder so
// the full span tree can be fetched afterwards with `clarens trace` or
// trace.get — the client-side half of tail sampling's escape hatch.
func WithTraceSample() ClientOption {
	return func(o *clientOptions) { o.traceSample = true }
}

// WithMaxConns bounds the client's connections per host (default 128):
// both the keep-alive idle pool AND the total including in-flight
// dials. The distinction matters under burst: the idle-pool size alone
// (MaxIdleConnsPerHost) only caps what survives between calls, while
// the hard cap (MaxConnsPerHost) stops a spike of concurrent calls
// from fanning out into an unbounded dial storm — excess calls block
// for a free connection instead. Over HTTP/2 one connection carries
// n concurrent streams anyway, so a small cap costs nothing.
func WithMaxConns(n int) ClientOption {
	return func(o *clientOptions) { o.maxConns = n }
}

// WithHTTP2 toggles HTTP/2 negotiation (default on). When the server
// offers ALPN "h2", calls multiplex concurrently over one TLS
// connection; against h1-only or plain-HTTP servers the client behaves
// exactly as before, so leaving this on is always safe — including with
// a fault-injecting WithDialer, where the transport still runs TLS+ALPN
// over whatever conn the dialer returns (or plain h1 without TLS).
func WithHTTP2(on bool) ClientOption {
	return func(o *clientOptions) { o.http2 = on }
}

// WithInsecureTLS skips server certificate verification (tests only).
func WithInsecureTLS() ClientOption {
	return func(o *clientOptions) { o.insecureTLS = true }
}

// WithRetry bounds the transparent per-call retry budget (default 3
// attempts). Retries apply to failures the server provably never acted
// on — dial errors and CodeOverloaded shed/drain faults — plus, for
// idempotent methods only, ambiguous transport drops mid-call. attempts
// <= 1 disables retrying entirely.
func WithRetry(attempts int) ClientOption {
	return func(o *clientOptions) { o.attempts = attempts }
}

// WithBreaker arms a client-side circuit breaker over the endpoint:
// after repeated transport-level failures calls fail fast with
// resilience.ErrOpen instead of hammering a dead server, and a single
// probe per cooldown rediscovers recovery. Server faults (the server
// answered) never count against the breaker.
func WithBreaker(cfg resilience.BreakerConfig) ClientOption {
	return func(o *clientOptions) { o.breaker = true; o.breakerCfg = cfg }
}

// WithDialer substitutes the TCP dial function used for every
// connection. Chaos tooling plugs a fault-injecting dialer in here; it
// also serves proxies and test transports.
func WithDialer(dial func(network, addr string) (net.Conn, error)) ClientOption {
	return func(o *clientOptions) { o.dial = dial }
}

// Dial creates a client for the given RPC endpoint URL. The URL may be a
// server base URL (the standard "/rpc" path is appended) or a full
// endpoint URL.
func Dial(url string, opts ...ClientOption) (*Client, error) {
	o := clientOptions{protocol: "xmlrpc", timeout: 30 * time.Second, maxConns: 128, attempts: 3, http2: true}
	for _, opt := range opts {
		opt(&o)
	}
	var codec rpc.Codec
	switch o.protocol {
	case "xmlrpc":
		codec = xmlrpc.New()
	case "jsonrpc":
		codec = jsonrpc.New()
	case "soap":
		codec = soaprpc.New()
	default:
		return nil, fmt.Errorf("clarens: unknown protocol %q", o.protocol)
	}
	if url == "" {
		return nil, fmt.Errorf("clarens: empty server URL")
	}
	if !hasRPCPath(url) {
		url += "/rpc"
	}
	transport := &http.Transport{
		MaxIdleConns:        o.maxConns,
		MaxIdleConnsPerHost: o.maxConns,
		MaxConnsPerHost:     o.maxConns,
		IdleConnTimeout:     90 * time.Second,
		// Setting a custom TLSClientConfig or DialContext disables the
		// transport's automatic h2 upgrade; this re-enables it. The
		// transport still performs its own TLS (with ALPN) over whatever
		// conn the dialer returns, and against plain-HTTP or h1-only
		// servers nothing changes.
		ForceAttemptHTTP2: o.http2,
	}
	if o.dial != nil {
		dial := o.dial
		transport.DialContext = func(_ context.Context, network, addr string) (net.Conn, error) {
			return dial(network, addr)
		}
	}
	// The TLS config is always installed (harmless for http:// endpoints)
	// so every client carries a session cache: reconnects resume from a
	// cached ticket instead of paying a full handshake + certificate
	// exchange — the handshake-amortization half of the connection layer.
	tc := &tls.Config{
		RootCAs:            o.rootCAs,
		InsecureSkipVerify: o.insecureTLS,
		ClientSessionCache: tls.NewLRUClientSessionCache(64),
	}
	if o.identity != nil {
		tc.Certificates = []tls.Certificate{o.identity.TLSCertificate()}
	}
	transport.TLSClientConfig = tc
	c := &Client{
		url:       url,
		codec:     codec,
		transport: transport,
		http:      &http.Client{Transport: transport, Timeout: o.timeout},
		retry:     resilience.Default(classifyCallError),
		session:   o.session,
		trace:     o.trace,
	}
	c.traceSample = o.traceSample
	c.connTrace = &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				c.conns.reused.Add(1)
			} else {
				c.conns.opened.Add(1)
			}
		},
		TLSHandshakeDone: func(cs tls.ConnectionState, err error) {
			if err != nil {
				return
			}
			c.conns.handshakes.Add(1)
			if cs.DidResume {
				c.conns.resumed.Add(1)
			}
			if cs.NegotiatedProtocol == "h2" {
				c.conns.http2.Add(1)
			}
		},
	}
	if o.attempts > 0 {
		c.retry.MaxAttempts = o.attempts
	}
	if o.breaker {
		c.breaker = resilience.NewBreaker(o.breakerCfg)
	}
	return c, nil
}

// classifyCallError maps one attempt's failure to a retry outcome. A
// server fault means the request executed: never retried, except for
// CodeOverloaded, which the server raises strictly before execution.
// Dial failures likewise never reached a handler and are always safe.
// Anything else (connection reset mid-response, truncated body) is
// ambiguous — the call may have run — so only idempotent methods retry.
func classifyCallError(err error) resilience.Outcome {
	if err == nil {
		return resilience.Success
	}
	var fault *rpc.Fault
	if errors.As(err, &fault) {
		if rpc.Retryable(fault.Code) {
			return resilience.RetrySafe
		}
		return resilience.Fatal
	}
	if errors.Is(err, context.Canceled) {
		return resilience.Fatal
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// Ambiguous, not fatal: this is usually the per-request HTTP
		// timeout (a stalled connection), and the request may or may not
		// have executed — idempotent methods retry on a fresh connection.
		// When it is the caller's own context that expired, the retry
		// loop's ctx check terminates before another attempt is made.
		return resilience.RetryUnsafe
	}
	if isDialFailure(err) {
		return resilience.RetrySafe
	}
	return resilience.RetryUnsafe
}

// isDialFailure reports whether err happened before any bytes of the
// request left: the connection itself could not be established.
func isDialFailure(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// idempotentMethod reports whether a standard-service method may be
// retried even when a previous attempt's fate is unknown. Read-only
// surfaces and the session plane qualify; mutations (file.write,
// job.submit, message.send, acl.set, ...) do not.
func idempotentMethod(method string) bool {
	if method == "system.multicall" {
		// A multicall batch may carry arbitrary mutations.
		return false
	}
	if strings.HasPrefix(method, "system.") {
		return true
	}
	switch method {
	case "job.status", "job.wait", "job.list", "job.output", "job.stats",
		"file.read", "file.ls", "file.stat", "file.size", "file.md5", "file.find",
		"file.get_acl", "acl.get", "acl.list", "acl.check",
		"message.count", "proxy.info", "proxy.check_delegation",
		"discovery.find", "discovery.servers", "discovery.methods":
		return true
	}
	return false
}

func hasRPCPath(url string) bool {
	// Endpoint paths end in a path segment after the host; a bare
	// "http://host:port" has at most the scheme's slashes.
	slash := 0
	for i := 0; i < len(url); i++ {
		if url[i] == '/' {
			slash++
			if slash == 3 && i < len(url)-1 {
				return true
			}
		}
	}
	return false
}

// URL returns the endpoint URL.
func (c *Client) URL() string { return c.url }

// Protocol returns the codec name in use.
func (c *Client) Protocol() string { return c.codec.Name() }

// Session returns the current session token ("" when unauthenticated).
func (c *Client) Session() string {
	c.sessionMu.RLock()
	defer c.sessionMu.RUnlock()
	return c.session
}

// SetSession installs a session token for subsequent calls.
func (c *Client) SetSession(id string) {
	c.sessionMu.Lock()
	c.session = id
	c.sessionMu.Unlock()
}

// Trace returns the client-level trace identifier ("" when unset).
func (c *Client) Trace() string {
	c.sessionMu.RLock()
	defer c.sessionMu.RUnlock()
	return c.trace
}

// SetTrace installs a trace identifier stamped on subsequent calls; ""
// clears it (servers then mint a fresh trace per request). A per-call
// ContextWithTrace value takes precedence.
func (c *Client) SetTrace(id string) {
	c.sessionMu.Lock()
	c.trace = id
	c.sessionMu.Unlock()
}

// SetTraceSample toggles force-sampling: while on, every call carries
// the X-Clarens-Trace-Sample header and its trace is promoted into the
// server's flight recorder unconditionally.
func (c *Client) SetTraceSample(on bool) {
	c.sessionMu.Lock()
	c.traceSample = on
	c.sessionMu.Unlock()
}

// TraceSampling reports whether force-sampling is on.
func (c *Client) TraceSampling() bool {
	c.sessionMu.RLock()
	defer c.sessionMu.RUnlock()
	return c.traceSample
}

// callTrace resolves the trace ID for one call: context override first,
// then the client-level trace.
func (c *Client) callTrace(ctx context.Context) string {
	if t, ok := ctx.Value(traceCtxKey{}).(string); ok && t != "" {
		return t
	}
	return c.Trace()
}

// callSession resolves the session token for one call: context override
// first (ContextWithSession), then the client-level session.
func (c *Client) callSession(ctx context.Context) string {
	if t, ok := ctx.Value(sessionCtxKey{}).(string); ok && t != "" {
		return t
	}
	return c.Session()
}

// Call invokes a method and returns its decoded result. Server faults
// come back as *rpc.Fault errors (errors.As-compatible).
func (c *Client) Call(method string, params ...any) (any, error) {
	return c.CallCtx(context.Background(), method, params...)
}

// CallCtx is Call bound to a context: cancelling ctx aborts the HTTP
// round trip, and the server propagates the cancellation into the running
// handler through its request-scoped context.
//
// Failed attempts retry transparently under the client's retry policy
// (see WithRetry): dial errors and overload-shed faults always, other
// transport drops only on idempotent methods. The error returned is the
// last attempt's. With WithBreaker armed, calls against an endpoint
// whose breaker is open fail fast with resilience.ErrOpen.
func (c *Client) CallCtx(ctx context.Context, method string, params ...any) (any, error) {
	var done func(bool)
	if c.breaker != nil {
		var err error
		if done, err = c.breaker.Allow(); err != nil {
			return nil, fmt.Errorf("clarens: %s: %s: %w", method, c.url, err)
		}
	}
	var result any
	err := c.retry.Do(ctx, idempotentMethod(method), func(ctx context.Context) error {
		v, err := c.callOnce(ctx, method, params...)
		if err != nil {
			return err
		}
		result = v
		return nil
	})
	if done != nil {
		// A fault means the server answered: the endpoint is healthy even
		// though the call failed, so only transport errors count against it.
		var fault *rpc.Fault
		done(err == nil || errors.As(err, &fault))
	}
	if err != nil {
		return nil, err
	}
	return result, nil
}

// CallAs invokes a method and returns its result as a T, read under the
// rule the server's typed parameters follow (rpc.As): an int result may
// arrive as an integral float64, a bool as an exact 0 or 1, []byte as a
// string, and []string as an array of strings; any other T must match
// exactly. It is a function because a method cannot have type parameters.
func CallAs[T any](c *Client, method string, params ...any) (T, error) {
	v, err := c.Call(method, params...)
	if err != nil {
		var zero T
		return zero, err
	}
	t, err := rpc.As[T](v)
	if err != nil {
		return t, fmt.Errorf("clarens: %s result: %w", method, err)
	}
	return t, nil
}

// callOnce performs one wire round trip with no retry involvement.
func (c *Client) callOnce(ctx context.Context, method string, params ...any) (any, error) {
	req := &rpc.Request{Method: method, Params: params, ID: int(c.nextID.Add(1))}
	var buf bytes.Buffer
	if err := c.codec.EncodeRequest(&buf, req); err != nil {
		return nil, fmt.Errorf("clarens: encode %s: %w", method, err)
	}
	ctx = httptrace.WithClientTrace(ctx, c.connTrace)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, &buf)
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", c.codec.ContentTypes()[0])
	if c.codec.Name() == "soap" {
		httpReq.Header.Set("SOAPAction", `"urn:clarens#`+method+`"`)
	}
	if sid := c.callSession(ctx); sid != "" {
		httpReq.Header.Set(core.SessionHeader, sid)
	}
	if tr := c.callTrace(ctx); tr != "" {
		httpReq.Header.Set(TraceHeader, tr)
	}
	if c.TraceSampling() {
		httpReq.Header.Set(SampleHeader, "1")
	}
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("clarens: %s: %w", method, err)
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, rpc.MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("clarens: read response: %w", err)
	}
	if len(body) > rpc.MaxBodyBytes {
		return nil, fmt.Errorf("clarens: %s: response exceeds %d MiB", method, rpc.MaxBodyBytes>>20)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("clarens: %s: HTTP %d: %s", method, httpResp.StatusCode, truncate(body, 200))
	}
	resp, err := c.codec.DecodeResponse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("clarens: decode %s response: %w", method, err)
	}
	if resp.Fault != nil {
		return nil, resp.Fault
	}
	return resp.Result, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// Auth establishes a session via system.auth (requires a TLS client
// certificate) and installs the returned token on the client.
func (c *Client) Auth() (string, error) {
	token, err := CallAs[string](c, "system.auth")
	if err != nil {
		return "", err
	}
	c.SetSession(token)
	return token, nil
}

// ProxyLogin establishes a session via proxy.login (stored proxy DN and
// password) and installs the token.
func (c *Client) ProxyLogin(dn DN, password string) (string, error) {
	token, err := CallAs[string](c, "proxy.login", dn.String(), password)
	if err != nil {
		return "", err
	}
	c.SetSession(token)
	return token, nil
}

// Logout destroys the current session.
func (c *Client) Logout() error {
	_, err := c.Call("system.logout")
	c.SetSession("")
	return err
}

// File access conveniences mirroring the paper's file service interface.

// FileReadChunk reads one file.read chunk: up to length bytes from name
// starting at offset (length -1 reads to the per-call cap). eof reports
// whether the chunk reached the end of the file, so iterating callers
// terminate without a zero-byte probe call.
func (c *Client) FileReadChunk(name string, offset int64, length int) (data []byte, eof bool, err error) {
	m, err := CallAs[map[string]any](c, "file.read", name, int(offset), length)
	if err != nil {
		return nil, false, err
	}
	if m["data"] != nil {
		if data, err = rpc.As[[]byte](m["data"]); err != nil {
			return nil, false, fmt.Errorf("clarens: file.read data: %w", err)
		}
	}
	eof, _ = m["eof"].(bool)
	return data, eof, nil
}

// FetchFile streams a server file into w by chunk-iterating file.read
// from offset until the server signals EOF, returning the bytes copied.
// This is the RPC artifact-fetch path; for the zero-copy transfer use
// FetchFileHTTP.
func (c *Client) FetchFile(name string, offset int64, w io.Writer) (int64, error) {
	var copied int64
	for {
		data, eof, err := c.FileReadChunk(name, offset+copied, -1)
		if err != nil {
			return copied, err
		}
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return copied, err
			}
			copied += int64(len(data))
		}
		if eof {
			return copied, nil
		}
		if len(data) == 0 {
			return copied, fmt.Errorf("clarens: file.read returned no data and no eof at offset %d", offset+copied)
		}
	}
}

// FetchFileHTTP streams a server file into w over the streaming HTTP GET
// endpoint (/files/), resuming at offset via a Range request — the
// sendfile path for bulky artifacts, with restart-at-offset for
// interrupted transfers. The current session token authenticates the
// request. Returns the bytes copied.
func (c *Client) FetchFileHTTP(name string, offset int64, w io.Writer) (int64, error) {
	url := c.FileURL(name)
	ctx := httptrace.WithClientTrace(context.Background(), c.connTrace)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if sid := c.Session(); sid != "" {
		req.Header.Set(core.SessionHeader, sid)
	}
	if tr := c.Trace(); tr != "" {
		req.Header.Set(TraceHeader, tr)
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch {
	case offset > 0 && resp.StatusCode == http.StatusPartialContent:
	case offset == 0 && resp.StatusCode == http.StatusOK:
	case offset > 0 && resp.StatusCode == http.StatusOK:
		// The server ignored the Range header; discard the prefix so the
		// caller still gets exactly the resumed tail.
		if _, err := io.CopyN(io.Discard, resp.Body, offset); err != nil {
			return 0, err
		}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return 0, fmt.Errorf("clarens: GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return io.Copy(w, resp.Body)
}

// FileURL returns the HTTP GET URL serving the named server file.
func (c *Client) FileURL(name string) string {
	base := strings.TrimSuffix(c.url, "/rpc")
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	return base + "/files" + name
}

// FileReadAll iterates file.read until EOF, returning the whole file.
func (c *Client) FileReadAll(name string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.FetchFile(name, 0, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FileLs lists a directory.
func (c *Client) FileLs(dir string) ([]map[string]any, error) {
	return structs(CallAs[[]any](c, "file.ls", dir))
}

// structs keeps the struct entries of an array result.
func structs(l []any, err error) ([]map[string]any, error) {
	if err != nil {
		return nil, err
	}
	out := make([]map[string]any, 0, len(l))
	for _, e := range l {
		if m, ok := e.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// Job conveniences over the job.* service.

// JobWait blocks server-side until the job reaches a terminal state (or
// the timeout elapses) and returns its status record — one round trip
// instead of a client-side poll loop. Works transparently for jobs the
// federation forwarded to a peer server.
func (c *Client) JobWait(id string, timeout time.Duration) (map[string]any, error) {
	secs := int(timeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return CallAs[map[string]any](c, "job.wait", id, secs)
}

// JobArtifact is a staged output file referenced by a job record: its
// Path is fetchable via file.read or HTTP GET, and Partial marks a
// stream the server's spool byte cap cut short.
type JobArtifact = jobsvc.Artifact

// JobOutputResult is a job's resolved output.
type JobOutputResult struct {
	Stdout   string
	Stderr   string
	ExitCode int
	State    string
	// Truncated reports whether Stdout or Stderr in THIS result is still
	// an incomplete head: false when the full streams were inline or were
	// fetched transparently from their artifacts. The per-stream flags
	// say which stream is affected.
	Truncated       bool
	StdoutTruncated bool
	StderrTruncated bool
	Artifacts       []JobArtifact
}

// JobOutputHead fetches a job's output record without following
// artifact references: inline heads, truncation flag, and the artifact
// list. Callers that want the full streams use JobOutput (in-memory) or
// stream each artifact's Path themselves with FetchFile/FetchFileHTTP.
func (c *Client) JobOutputHead(id string) (*JobOutputResult, error) {
	m, err := CallAs[map[string]any](c, "job.output", id)
	if err != nil {
		return nil, err
	}
	out, state := jobsvc.ParseOutput(m)
	res := &JobOutputResult{
		Stdout:          out.Stdout,
		Stderr:          out.Stderr,
		ExitCode:        out.ExitCode,
		State:           state,
		Truncated:       out.Truncated,
		StdoutTruncated: out.StdoutTruncated,
		StderrTruncated: out.StderrTruncated,
		Artifacts:       out.Artifacts,
	}
	if res.Truncated && !res.StdoutTruncated && !res.StderrTruncated {
		// A server that only reports the aggregate: assume either stream
		// may be the incomplete one.
		res.StdoutTruncated, res.StderrTruncated = true, true
	}
	return res, nil
}

// JobOutput fetches a job's output, following artifact references
// transparently: when the server reports truncated inline heads and the
// record carries staged stdout/stderr artifacts, the full streams are
// fetched by chunk-iterating file.read. The resolved streams are held in
// memory — for very large artifacts prefer JobOutputHead plus
// FetchFile/FetchFileHTTP into a destination of your choosing.
// Collected sandbox artifacts are listed but never fetched here.
func (c *Client) JobOutput(id string) (*JobOutputResult, error) {
	res, err := c.JobOutputHead(id)
	if err != nil {
		return nil, err
	}
	if !res.Truncated {
		return res, nil
	}
	// A stream that outgrew its head has exactly one staged artifact
	// named after it; fetching it resolves that stream. A stream stays
	// truncated when its artifact is missing (GC'd, staging disabled
	// server-side, or skipped by the federation pull-back) or is itself
	// Partial (cut by the server's spool cap) — resolution is tracked
	// PER STREAM so a fetched stderr never masks a still-truncated stdout.
	for _, a := range res.Artifacts {
		if a.Name != "stdout" && a.Name != "stderr" {
			continue
		}
		var buf bytes.Buffer
		if _, err := c.FetchFile(a.Path, 0, &buf); err != nil {
			return nil, fmt.Errorf("clarens: fetch %s artifact of job %s: %w", a.Name, id, err)
		}
		if a.Name == "stdout" {
			res.Stdout = buf.String()
			res.StdoutTruncated = a.Partial
		} else {
			res.Stderr = buf.String()
			res.StderrTruncated = a.Partial
		}
	}
	res.Truncated = res.StdoutTruncated || res.StderrTruncated
	return res, nil
}

// Discover queries the server's discovery cache.
func (c *Client) Discover(pattern string) ([]map[string]any, error) {
	return structs(CallAs[[]any](c, "discovery.find", pattern))
}

// Close releases idle connections.
func (c *Client) Close() {
	c.transport.CloseIdleConnections()
}
