package core

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clarens/internal/acl"
	"clarens/internal/db"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/session"
	"clarens/internal/telemetry"
	"clarens/internal/vo"
	"clarens/internal/ws"
)

// Config configures a Server.
type Config struct {
	// DataDir is the directory for the persistent database; empty runs
	// in-memory (no restart survival).
	DataDir string
	// AdminDNs statically populates the root admins VO group on startup
	// (paper §2.1).
	AdminDNs []string
	// SessionTTL is the session lifetime; zero means 12h.
	SessionTTL time.Duration
	// RPCPath is the POST endpoint; default "/rpc". The root path "/" also
	// accepts RPC POSTs, mirroring PClarens' URL-based dispatch.
	RPCPath string
	// DisableAuth skips the session lookup and ACL walk (ablation A1 in
	// DESIGN.md). Never use outside benchmarks.
	DisableAuth bool
	// MethodTimeout bounds each method invocation; the handler's context
	// carries the deadline. Zero means no server-wide bound (individual
	// methods may still set Method.Timeout).
	MethodTimeout time.Duration
	// MaxInFlight bounds concurrently executing top-level RPCs; beyond
	// it the shed stage rejects new calls early with the retryable
	// CodeOverloaded fault instead of letting latency collapse under
	// queueing. Zero means unlimited.
	MaxInFlight int
	// DB tunes the embedded database (WAL fsync policy, fault-injection
	// seams). The zero value preserves the historical behaviour.
	DB db.Options
	// MaxBatchCalls caps the number of sub-calls one system.multicall may
	// carry, bounding the amplification a single anonymous POST can buy.
	// Zero means DefaultMaxBatchCalls; negative means unlimited.
	MaxBatchCalls int
	// BatchParallelism sets how many system.multicall sub-calls may
	// execute concurrently (ROADMAP: parallel multicall execution).
	// Results always come back in submission order regardless. 0 or 1
	// executes sub-calls sequentially, preserving the strict in-order
	// semantics clients may rely on for dependent batches.
	BatchParallelism int
	// OpenSystem grants anonymous+any callers the system service at
	// startup, reproducing the paper's Figure 4 environment where
	// unauthenticated clients invoke system.list_methods through two live
	// access checks. Default true.
	OpenSystem *bool
	// TLS, when non-nil, enables HTTPS with certificate-based client
	// authentication against ClientCAs.
	TLS *TLSConfig
	// DisableHTTP2 restricts the TLS listener to HTTP/1.1. By default the
	// server offers ALPN "h2" and multiplexes concurrent RPCs over one
	// connection; clients that cannot speak h2 (or offer no ALPN at all,
	// like the raw /ws dialer) still negotiate down to HTTP/1.1.
	DisableHTTP2 bool
	// Logger receives framework logs; nil discards them.
	Logger *log.Logger
	// RequestLog, when non-nil, receives one structured entry per
	// dispatched call (including multicall sub-calls): method, protocol,
	// trace/span identifiers, caller DN, duration, and fault code. Nil
	// disables request logging entirely, keeping the dispatch hot path
	// free of formatting work.
	RequestLog *slog.Logger
	// TraceStore enables the flight recorder: completed spans are
	// tail-sampled into a bounded in-process ring, queryable via the
	// trace.* RPCs and GET /debug/traces/<id>, with sampled trace IDs
	// attached to /metrics histogram buckets as OpenMetrics exemplars.
	TraceStore bool
	// TraceSlow is the tail-sampling latency threshold: traces whose
	// local root meets it are retained. Zero means 500ms.
	TraceSlow time.Duration
	// TraceCapacity bounds the span ring. Zero means 4096 spans.
	TraceCapacity int
	// ServerName stamps recorded spans (and merged federated trace
	// trees) with this server's name; typically the discovery name.
	ServerName string
}

// TLSConfig carries the server identity and client-auth trust anchors.
type TLSConfig struct {
	Identity *pki.Identity
	// ClientCAs verifies client certificates; client certs are requested
	// but not required (browsers without certs may still reach public
	// portal pages; paper §3).
	ClientCAs *x509.CertPool
	// RequireClientCert refuses connections without a verified client
	// certificate.
	RequireClientCert bool
	// TicketRotate rotates the TLS session-ticket keys on this period.
	// Zero without TicketSecret leaves Go's automatic per-process key
	// rotation in place (fine standalone, useless across a federation).
	TicketRotate time.Duration
	// TicketSecret, when set, derives the ticket keys deterministically
	// from (secret, time/TicketRotate): every peer sharing the secret and
	// rotation period accepts each other's session tickets, so a client
	// bouncing between federation peers behind one DNS name resumes
	// instead of full-handshaking. With TicketRotate zero the secret
	// yields a single static key.
	TicketSecret string
}

// Server is a Clarens framework instance.
type Server struct {
	cfg      Config
	store    *db.Store
	sessions *session.Manager
	vom      *vo.Manager
	methACL  *acl.Manager
	registry *registry
	codecs   []rpc.Codec
	logger   *log.Logger

	telemetry  *telemetry.Registry
	requestLog *slog.Logger

	// spans is the flight recorder (nil when Config.TraceStore is off);
	// populated by the observe pipeline stage, queried by the trace service
	// and /debug/traces.
	spans *telemetry.SpanStore
	// runtimeSampler feeds the clarens.runtime.* gauges; stopped once on
	// shutdown.
	runtimeSampler  *telemetry.RuntimeSampler
	stopSamplerOnce sync.Once

	// health checks and extra system.stats sections contributed by the
	// assembled services (job queue depths, federation peer health, ...).
	healthMu sync.RWMutex
	health   []namedCheck
	sections []namedSection

	// dispatch pipeline: registered stages (built-ins carry anchor names,
	// custom interceptors are unnamed) and the cached composition (folded
	// outermost-first over the terminal handler).
	dispatchMu   sync.RWMutex
	interceptors []pipelineStage
	pipeline     Handler

	mux      *http.ServeMux
	httpSrv  *http.Server
	listener net.Listener

	// conns counts connection-layer events (TLS handshakes, resumptions,
	// ALPN outcomes, per-protocol requests); tickets manages session-ticket
	// key rotation for the TLS listener.
	conns   connTracker
	tickets *ticketKeeper

	events *pubsub.Bus

	wsMu     sync.Mutex
	wsConns  map[*ws.Conn]struct{}
	wsClosed bool

	// Load shedding and graceful drain: the shed pipeline stage counts
	// top-level RPCs in flight and rejects work once draining is set or
	// MaxInFlight is exceeded.
	inflight atomic.Int64
	draining atomic.Bool
	shed     *telemetry.Counter

	started time.Time
}

// NewServer constructs a framework instance, opens the database, boots the
// VO tree, and registers the built-in system, vo, and acl services.
func NewServer(cfg Config) (*Server, error) {
	store, err := db.OpenWith(cfg.DataDir, cfg.DB)
	if err != nil {
		return nil, err
	}
	vom, err := vo.NewManager(store, cfg.AdminDNs)
	if err != nil {
		store.Close()
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	if cfg.RPCPath == "" {
		cfg.RPCPath = "/rpc"
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		sessions:   session.NewManager(store, cfg.SessionTTL),
		vom:        vom,
		methACL:    acl.NewManager(store, "acl_methods", vom),
		registry:   newRegistry(store),
		codecs:     []rpc.Codec{xmlrpc.New(), jsonrpc.New(), soaprpc.New()},
		logger:     logger,
		telemetry:  telemetry.New(),
		requestLog: cfg.RequestLog,
		mux:        http.NewServeMux(),
		events:     pubsub.New(),
		started:    time.Now(),
	}
	s.events.Instrument(s.telemetry)
	s.registerBuiltinInterceptors()
	s.telemetry.RegisterGauge("clarens.core.sessions", "Active sessions.",
		func() float64 { return float64(s.sessions.Count()) })
	s.telemetry.RegisterGauge("clarens.core.methods", "Registered RPC methods.",
		func() float64 { return float64(s.registry.count()) })
	s.telemetry.RegisterGauge("clarens.core.uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.telemetry.RegisterGauge("clarens.core.inflight", "Top-level RPCs currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	s.telemetry.RegisterGauge("clarens.core.draining", "1 while the server is draining for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.telemetry.RegisterGauge("clarens.db.wal_fsyncs", "WAL fsyncs issued by the store.",
		func() float64 { return float64(s.store.Fsyncs()) })
	s.shed = s.telemetry.Counter("clarens.core.shed_total",
		"RPCs rejected early by the load-shedding stage (overload, expired deadline, or drain).")
	s.conns.register(s.telemetry)
	s.RegisterStatsSection("conn", s.conns.stats)
	s.runtimeSampler = telemetry.StartRuntimeSampler(s.telemetry, 10*time.Second)

	if cfg.TraceStore {
		s.spans = telemetry.NewSpanStore(telemetry.SpanStoreOptions{
			Capacity: cfg.TraceCapacity,
			Slow:     cfg.TraceSlow,
			Server:   cfg.ServerName,
		})
		// Every promoted span becomes the exemplar of its latency bucket,
		// closing the /metrics → trace ID loop.
		s.spans.OnSample = func(_ string, d time.Duration, trace string) {
			s.telemetry.AttachRPCExemplar(d, trace)
		}
		s.telemetry.RegisterGauge("clarens.trace.spans", "Spans resident in the flight-recorder ring.",
			func() float64 { return float64(s.spans.Stats().Live) })
		s.telemetry.RegisterGauge("clarens.trace.sampled_total", "Traces promoted to the flight recorder.",
			func() float64 { return float64(s.spans.Stats().SampledTraces) })
		s.telemetry.RegisterGauge("clarens.trace.dropped_total", "Traces discarded by tail sampling.",
			func() float64 { return float64(s.spans.Stats().DroppedTraces) })
		s.RegisterStatsSection("trace_store", func() map[string]any {
			st := s.spans.Stats()
			return map[string]any{
				"capacity":        st.Capacity,
				"spans":           st.Live,
				"traces":          st.Traces,
				"pending":         int(st.Pending),
				"sampled_traces":  int(st.SampledTraces),
				"dropped_traces":  int(st.DroppedTraces),
				"forced":          int(st.Forced),
				"slow":            int(st.Slow),
				"faulted":         int(st.Faulted),
				"spans_dropped":   int(st.SpansDropped),
				"pending_evicted": int(st.PendingEvicted),
				"slow_threshold":  s.spans.Slow().String(),
			}
		})
		s.RegisterHealthCheck("trace_store", func() error {
			if s.spans.PendingSaturated() {
				return fmt.Errorf("pending trace buffer saturated (evictions: %d)", s.spans.Stats().PendingEvicted)
			}
			return nil
		})
		s.mux.HandleFunc("/debug/traces/", s.handleDebugTrace)
	}

	s.mux.HandleFunc(cfg.RPCPath, s.handleRPC)
	if cfg.RPCPath != "/" {
		s.mux.HandleFunc("/", s.handleRoot)
	}

	if err := s.Register(systemService{s}); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.Register(voService{s}); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.Register(aclService{s}); err != nil {
		s.Close()
		return nil, err
	}
	if s.spans != nil {
		if err := s.Register(traceService{s}); err != nil {
			s.Close()
			return nil, err
		}
	}

	openSystem := cfg.OpenSystem == nil || *cfg.OpenSystem
	if openSystem {
		err := s.methACL.Set("system", &acl.ACL{
			AllowDNs:    []string{acl.EntryAny, acl.EntryAnonymous},
			AllowGroups: []string{vo.AdminsGroup},
		})
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Accessors used by services and the public API.

// Store returns the embedded database.
func (s *Server) Store() *db.Store { return s.store }

// Sessions returns the session manager.
func (s *Server) Sessions() *session.Manager { return s.sessions }

// VO returns the virtual-organization manager.
func (s *Server) VO() *vo.Manager { return s.vom }

// MethodACL returns the ACL manager guarding method invocation.
func (s *Server) MethodACL() *acl.Manager { return s.methACL }

// Stats returns the live dispatch counters.
func (s *Server) Stats() Stats { return Stats{s.telemetry} }

// Telemetry returns the server's metrics registry: per-method latency
// histograms fed by the dispatch pipeline, plus the counters, gauges,
// and histograms services register. Rendered by the /metrics endpoint,
// system.stats, and the MonALISA republication.
func (s *Server) Telemetry() *telemetry.Registry { return s.telemetry }

// RequestLog returns the structured request logger, or nil when request
// logging is disabled.
func (s *Server) RequestLog() *slog.Logger { return s.requestLog }

// Spans returns the flight-recorder span store, or nil when
// Config.TraceStore is disabled.
func (s *Server) Spans() *telemetry.SpanStore { return s.spans }

// Logger returns the server's logger.
func (s *Server) Logger() *log.Logger { return s.logger }

// namedCheck is one registered health probe.
type namedCheck struct {
	name string
	fn   func() error
}

// namedSection is one registered system.stats contributor.
type namedSection struct {
	name string
	fn   func() map[string]any
}

// RegisterHealthCheck adds a named probe to system.health. The probe
// returns nil when healthy; a non-nil error marks the overall status
// degraded and surfaces the error text under the check's name.
func (s *Server) RegisterHealthCheck(name string, fn func() error) {
	s.healthMu.Lock()
	s.health = append(s.health, namedCheck{name, fn})
	s.healthMu.Unlock()
}

// RegisterStatsSection adds a named struct to the system.stats response
// (queue depths, artifact bytes, peer health, ...). The callback runs on
// every system.stats call and must be safe for concurrent use.
func (s *Server) RegisterStatsSection(name string, fn func() map[string]any) {
	s.healthMu.Lock()
	s.sections = append(s.sections, namedSection{name, fn})
	s.healthMu.Unlock()
}

// runHealthChecks evaluates every registered probe; ok reports whether
// all passed, and results maps check name to "ok" or the error text.
func (s *Server) runHealthChecks() (ok bool, results map[string]any) {
	s.healthMu.RLock()
	checks := append([]namedCheck(nil), s.health...)
	s.healthMu.RUnlock()
	ok = true
	results = make(map[string]any, len(checks))
	for _, c := range checks {
		if err := c.fn(); err != nil {
			ok = false
			results[c.name] = err.Error()
		} else {
			results[c.name] = "ok"
		}
	}
	return ok, results
}

// statsSections evaluates every registered contributor.
func (s *Server) statsSections() map[string]any {
	s.healthMu.RLock()
	sections := append([]namedSection(nil), s.sections...)
	s.healthMu.RUnlock()
	out := make(map[string]any, len(sections))
	for _, sec := range sections {
		out[sec.name] = sec.fn()
	}
	return out
}

// MountMetrics exposes the telemetry registry in Prometheus text format
// at path ("/metrics" when empty) on the server's mux. The endpoint is
// read-only and unauthenticated, like the GET banner: it carries
// aggregate latency numbers, not request payloads.
func (s *Server) MountMetrics(path string) {
	if path == "" {
		path = "/metrics"
	}
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "metrics endpoint accepts GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.telemetry.WritePrometheus(w)
	})
}

// MountPprof exposes net/http/pprof under /debug/pprof/ on the server's
// mux. Opt-in: profiling endpoints reveal goroutine stacks and heap
// contents, so deployments enable them deliberately.
func (s *Server) MountPprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Register adds a service's methods to the registry. Every new top-level
// module receives a default ACL granting the root admins group, unless an
// ACL is already attached at the module level (so configured grants are
// never overwritten).
func (s *Server) Register(svc Service) error {
	if err := s.registry.register(svc); err != nil {
		return err
	}
	existing, err := s.methACL.Get(svc.Name())
	if err != nil {
		return err
	}
	if existing == nil {
		return s.methACL.Set(svc.Name(), &acl.ACL{AllowGroups: []string{vo.AdminsGroup}})
	}
	return nil
}

// Mux exposes the HTTP mux so services (files, portal, discovery) can
// attach GET endpoints, as Figure 1's "XML-RPC | GET | SOAP" row shows.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// MethodNames returns all registered method names, sorted, via the
// database-backed path. The returned slice is the caller's to keep.
func (s *Server) MethodNames() []string {
	return append([]string(nil), s.registry.listFromDB()...)
}

// NewSessionFor creates a session directly; used by system.auth,
// proxy.login, examples, and tests.
func (s *Server) NewSessionFor(dn pki.DN) (*session.Session, error) {
	return s.sessions.New(dn)
}

// handleRoot accepts RPC POSTs on "/" and answers GET / with a banner, in
// the spirit of PClarens dispatching on URL form.
func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleRPC(w, r)
		return
	}
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s\nmethods: %d\nrpc endpoint: POST %s\n", Version, s.registry.count(), s.cfg.RPCPath)
}

// codecFor selects the protocol implementation for a request.
func (s *Server) codecFor(r *http.Request) rpc.Codec {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(strings.ToLower(ct))
	if r.Header.Get("SOAPAction") != "" || ct == "application/soap+xml" {
		return s.codecs[2]
	}
	switch ct {
	case "application/json", "application/json-rpc", "text/json":
		return s.codecs[1]
	default:
		return s.codecs[0] // XML-RPC: text/xml and anything else
	}
}

// SessionHeader is the HTTP header carrying the session identifier;
// the session cookie name is the lowercase equivalent.
const (
	SessionHeader = "X-Clarens-Session"
	SessionCookie = "clarens_session"
)

// IdentifyRequest resolves the caller's DN and session. Order of
// precedence: a verified TLS client certificate (possibly a proxy chain,
// paper §2.6), then a presented session token. The session lookup is
// always performed — it is the first of the two per-request access checks
// measured in Figure 4. Exported for GET-path services (files, portal).
func (s *Server) IdentifyRequest(r *http.Request) (pki.DN, *session.Session) {
	var dn pki.DN
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		if len(r.TLS.VerifiedChains) > 0 {
			dn = pki.EffectiveDNFromChain(r.TLS.VerifiedChains[0])
		} else {
			dn = pki.EffectiveDNFromChain(r.TLS.PeerCertificates)
		}
	}
	sid := r.Header.Get(SessionHeader)
	if sid == "" {
		if c, err := r.Cookie(SessionCookie); err == nil {
			sid = c.Value
		}
	}
	// Access check 1: is this credential associated with a current
	// session? (database lookup, even for an empty token)
	sess, ok := s.sessions.Get(sid)
	if !ok {
		sess = nil
	}
	if dn.IsZero() && sess != nil {
		dn = sess.DNParsed()
	}
	return dn, sess
}

// handleRPC is the POST dispatch pipeline.
func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "RPC endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	s.conns.request(r)
	codec := s.codecFor(r)
	req, err := codec.DecodeRequest(r.Body)
	if err != nil {
		fault, ok := err.(*rpc.Fault)
		if !ok {
			fault = &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
		}
		s.writeResponse(w, codec, &rpc.Response{Fault: fault})
		// No dispatch ran, so there is no latency to report.
		s.telemetry.ObserveRPC("(parse-error)", true, 0)
		return
	}
	resp := s.Dispatch(r, codec.Name(), req)
	s.writeResponse(w, codec, resp)
}

// respBufPool recycles response encode buffers across requests. Encoding
// into a pooled buffer (instead of straight to the ResponseWriter) costs
// nothing extra — the wire bytes must be materialized either way — and
// buys buffer reuse plus an exact Content-Length, which keeps HTTP/1.1
// responses out of chunked encoding.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// respBufRetainLimit is the largest buffer returned to the pool; one
// oversized response must not pin its buffer forever.
const respBufRetainLimit = 1 << 20

func (s *Server) writeResponse(w http.ResponseWriter, codec rpc.Codec, resp *rpc.Response) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= respBufRetainLimit {
			respBufPool.Put(buf)
		}
	}()
	if err := codec.EncodeResponse(buf, resp); err != nil {
		s.logger.Printf("core: encode response: %v", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", codec.ContentTypes()[0]+"; charset=utf-8")
	w.Header().Set("X-Clarens-Server", Version)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// Handler returns the full HTTP handler (RPC + registered GET endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port). With cfg.TLS set it serves HTTPS
// with client-certificate authentication; otherwise plain HTTP. It
// returns once the listener is accepting; serving continues in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", addr, err)
	}
	if s.cfg.TLS != nil {
		tc, err := s.tlsServerConfig()
		if err != nil {
			ln.Close()
			return err
		}
		// The keeper installs keys on tc itself; wrapping the listener with
		// this same live config (rather than handing it to http.Server,
		// which clones it and freezes the key set) is what lets rotation
		// take effect without a restart.
		s.tickets = newTicketKeeper(tc, s.cfg.TLS.TicketSecret, s.cfg.TLS.TicketRotate)
		ln = tls.NewListener(ln, tc)
	}
	s.listener = ln
	s.httpSrv = &http.Server{
		Handler:  s.mux,
		ErrorLog: s.logger,
		ConnState: func(_ net.Conn, st http.ConnState) {
			// HTTP/2 connections fire StateNew on accept and are then owned
			// by the h2 layer (no further state hooks), so opened is exact
			// across protocols while closed covers HTTP/1.x only.
			switch st {
			case http.StateNew:
				s.conns.opened.Add(1)
			case http.StateClosed, http.StateHijacked:
				s.conns.closed.Add(1)
			}
		},
	}
	if s.cfg.TLS != nil && !s.cfg.DisableHTTP2 {
		// srv.Serve on a tls.Listener does not wire up the bundled HTTP/2
		// server by itself: the TLS config must offer "h2" via ALPN (done
		// in tlsServerConfig) and the http.Server must enable the protocol
		// so Serve registers the h2 connection handler. Declare it
		// explicitly rather than relying on the nil-TLSConfig compatibility
		// default.
		var protos http.Protocols
		protos.SetHTTP1(true)
		protos.SetHTTP2(true)
		s.httpSrv.Protocols = &protos
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logger.Printf("core: serve: %v", err)
		}
	}()
	return nil
}

// tlsServerConfig builds the HTTPS configuration with grid-style client
// authentication, including acceptance of RFC 3820 proxy certificate
// chains (which standard verification rejects because the signing user
// certificate is not a CA).
func (s *Server) tlsServerConfig() (*tls.Config, error) {
	t := s.cfg.TLS
	if t.Identity == nil {
		return nil, fmt.Errorf("core: TLS enabled without a server identity")
	}
	cert := t.Identity.TLSCertificate()
	clientAuth := tls.VerifyClientCertIfGiven
	if t.RequireClientCert {
		clientAuth = tls.RequireAnyClientCert
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		ClientAuth:   clientAuth,
		MinVersion:   tls.VersionTLS12,
		// Offer h2 first; clients that skip ALPN entirely (the raw /ws
		// dialer, pre-h2 tooling) fall back to HTTP/1.1, which keeps the
		// Upgrade/hijack path working on an h2-enabled server.
		NextProtos: []string{"h2", "http/1.1"},
		// VerifyConnection runs on every connection — including resumed
		// ones, where the certificate callbacks are skipped — making it the
		// one place handshake/resumption telemetry is complete.
		VerifyConnection: func(cs tls.ConnectionState) error {
			s.conns.handshake(cs)
			return nil
		},
	}
	if s.cfg.DisableHTTP2 {
		cfg.NextProtos = []string{"http/1.1"}
	}
	if t.ClientCAs != nil {
		cfg.ClientCAs = t.ClientCAs
		// Standard verification fails for proxy chains; verify manually.
		cfg.ClientAuth = tls.RequireAnyClientCert
		if !t.RequireClientCert {
			cfg.ClientAuth = tls.RequestClientCert
		}
		cfg.VerifyPeerCertificate = func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
			if len(rawCerts) == 0 {
				if t.RequireClientCert {
					return fmt.Errorf("core: client certificate required")
				}
				return nil
			}
			certs := make([]*x509.Certificate, 0, len(rawCerts))
			for _, raw := range rawCerts {
				c, err := x509.ParseCertificate(raw)
				if err != nil {
					return err
				}
				certs = append(certs, c)
			}
			leaf := certs[0]
			if pki.IsProxy(leaf) {
				_, err := pki.VerifyProxy(leaf, certs[1:], t.ClientCAs)
				return err
			}
			inter := x509.NewCertPool()
			for _, c := range certs[1:] {
				inter.AddCert(c)
			}
			_, err := leaf.Verify(x509.VerifyOptions{
				Roots:         t.ClientCAs,
				Intermediates: inter,
				KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
			})
			return err
		}
	}
	return cfg, nil
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// URL returns the base URL of the running server.
func (s *Server) URL() string {
	scheme := "http"
	if s.cfg.TLS != nil {
		scheme = "https"
	}
	return scheme + "://" + s.Addr()
}

// RPCPath returns the configured POST endpoint path.
func (s *Server) RPCPath() string { return s.cfg.RPCPath }

// Close shuts the server down and closes the database. Live WebSocket
// sessions are told the server is going away (a "closing" frame) before
// the bus and listener are torn down.
func (s *Server) Close() error {
	s.stopSamplerOnce.Do(s.runtimeSampler.Stop)
	s.tickets.Stop()
	s.closeWS()
	s.events.Close()
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	return s.store.Close()
}

// Draining reports whether the server is refusing new RPCs ahead of
// shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the number of top-level RPCs currently executing.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Drain flips the server into draining mode — every new top-level RPC
// is rejected with the retryable CodeOverloaded fault — and waits for
// the RPCs already executing to finish, bounded by ctx. It returns
// ctx.Err() if in-flight work outlived the deadline (the work keeps
// running; Shutdown proceeds regardless). Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// Shutdown performs a graceful stop: reject new RPCs (retryable fault),
// let in-flight calls finish within ctx, tell every /ws client the
// server is closing, stop the listener, compact the database (so the
// next open replays no WAL), and close it. The hard-stop Close remains
// for abrupt teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.Drain(ctx)
	s.stopSamplerOnce.Do(s.runtimeSampler.Stop)
	s.tickets.Stop()
	// WS connections are hijacked from the http.Server, so they are
	// notified explicitly; the pubsub bus close unblocks their readers.
	s.closeWS()
	s.events.Close()
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.httpSrv.Close()
		}
	}
	if err := s.store.Compact(); err != nil && !errors.Is(err, db.ErrClosed) {
		s.logger.Printf("core: compact on shutdown: %v", err)
	}
	if err := s.store.Close(); err != nil {
		return err
	}
	return drainErr
}
