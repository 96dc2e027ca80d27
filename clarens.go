// Package clarens is a Go implementation of the Clarens Web Service
// Framework for distributed scientific analysis in grid projects
// (van Lingen et al., ICPP Workshops 2005).
//
// A Server hosts named web-service modules invoked over HTTP(S) via
// XML-RPC, SOAP 1.1, or JSON-RPC, with X.509/proxy-certificate
// authentication, persistent restart-surviving sessions, hierarchical
// virtual-organization management, Apache-style method and file ACLs,
// remote file access, a sandboxed shell service, password-protected proxy
// storage, MonALISA-style dynamic service discovery, and a browser
// portal.
//
// Quickstart:
//
//	srv, err := clarens.NewServer(clarens.Config{Name: "tier2"})
//	...
//	err = srv.Start("127.0.0.1:8080")
//	c, err := clarens.Dial(srv.URL())
//	methods, err := c.Call("system.list_methods")
//
// See examples/ for complete programs and DESIGN.md for the paper map.
package clarens

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"clarens/internal/acl"
	"clarens/internal/core"
	"clarens/internal/db"
	"clarens/internal/discovery"
	"clarens/internal/fileservice"
	"clarens/internal/jobsvc"
	"clarens/internal/messaging"
	"clarens/internal/metasched"
	"clarens/internal/monalisa"
	"clarens/internal/pki"
	"clarens/internal/portal"
	"clarens/internal/proxysvc"
	"clarens/internal/pubsub"
	"clarens/internal/session"
	"clarens/internal/shellsvc"
	"clarens/internal/vo"
)

// Re-exported framework types: these form the public API surface for
// implementing and registering custom services.
type (
	// Service is a named bundle of methods registered on a Server.
	Service = core.Service
	// Method describes one invocable web-service method.
	Method = core.Method
	// Context carries per-request identity into method handlers.
	Context = core.Context
	// Params wraps positional RPC parameters with typed accessors.
	Params = core.Params
	// Handler is a service method implementation.
	Handler = core.Handler
	// Interceptor wraps a Handler with cross-cutting dispatch behavior
	// (rate limiting, tracing, auditing); register with Server.Use.
	Interceptor = core.Interceptor
	// DN is an X.509 distinguished name in grid slash form.
	DN = pki.DN
	// ACL is an Apache-style access control list entry.
	ACL = acl.ACL
	// Session is a persistent server-side session record.
	Session = session.Session
	// TLSConfig carries the HTTPS identity and client trust anchors.
	TLSConfig = core.TLSConfig
	// Identity bundles a certificate and private key.
	Identity = pki.Identity
	// CA is a test certificate authority.
	CA = pki.CA
	// DiscoveryEntry describes one service on one server.
	DiscoveryEntry = discovery.Entry
	// Bus is the server's push-event bus; services publish typed tagged
	// events, /ws subscribers and in-process Subscriptions receive them.
	Bus = pubsub.Bus
)

// Named dispatch-pipeline anchors for Server.UseBefore, re-exported.
const (
	AnchorRecover  = core.AnchorRecover
	AnchorTrace    = core.AnchorTrace
	AnchorShed     = core.AnchorShed
	AnchorAuth     = core.AnchorAuth
	AnchorDeadline = core.AnchorDeadline
	AnchorACL      = core.AnchorACL
)

// ACL evaluation orders and special DN entries, re-exported.
const (
	OrderAllowDeny = acl.AllowDeny
	OrderDenyAllow = acl.DenyAllow
	EntryAny       = acl.EntryAny
	EntryAnonymous = acl.EntryAnonymous
)

// File ACL access kinds, re-exported for Server.Files.SetACL/Grant.
const (
	AccessRead  = fileservice.Read
	AccessWrite = fileservice.Write
)

// ParseDN parses a slash-form distinguished name.
func ParseDN(s string) (DN, error) { return pki.ParseDN(s) }

// MustParseDN is ParseDN that panics on error.
func MustParseDN(s string) DN { return pki.MustParseDN(s) }

// NewCA creates a self-signed test certificate authority.
func NewCA(subject DN) (*CA, error) { return pki.NewCA(subject) }

// NewProxy issues an RFC 3820-style proxy certificate.
func NewProxy(issuer *Identity, ttl time.Duration) (*Identity, error) {
	return pki.NewProxy(issuer, ttl)
}

// Version is the framework version string.
const Version = core.Version

// Config assembles a full Clarens server. The zero value runs an
// in-memory server with only the built-in system/vo/acl services.
type Config struct {
	// Name identifies this server instance in the discovery network.
	Name string
	// DataDir is the persistent database directory ("" = in-memory; the
	// paper's restart-surviving sessions need a real directory).
	DataDir string
	// DBFsync selects the WAL fsync policy: "always" (every
	// acknowledged write reaches stable storage before the RPC
	// returns — survives SIGKILL and power loss), "interval"
	// (background fsync every DBFsyncInterval, bounding the loss
	// window), or "never"/"" (OS page cache only, the historical
	// behaviour).
	DBFsync string
	// DBFsyncInterval is the background fsync period under
	// DBFsync="interval" (default 100ms).
	DBFsyncInterval time.Duration
	// MaxInFlight bounds concurrently executing top-level RPCs; beyond
	// it new calls are shed early with the retryable "overloaded" fault
	// instead of queueing. Zero means unlimited.
	MaxInFlight int
	// AdminDNs statically populates the root admins group on startup.
	AdminDNs []string
	// SessionTTL is the session lifetime (default 12h).
	SessionTTL time.Duration
	// FileRoot, when set, enables the file service with this directory as
	// the virtual root, mounted for HTTP GET under /files/.
	FileRoot string
	// ShellUserMap, when set, enables the shell service with this
	// .clarens_user_map file. Sandboxes live under FileRoot/sandbox (so
	// they are visible to the file service) or under DataDir when no
	// FileRoot is configured.
	ShellUserMap string
	// EnableProxy enables the proxy certificate store service.
	EnableProxy bool
	// EnableMessaging enables the store-and-forward message service (the
	// paper's §6 IM architecture for jobs behind NAT).
	EnableMessaging bool
	// EnableJobs enables the asynchronous job execution service. Payloads
	// run in the shell sandbox, so ShellUserMap must also be set. Job
	// state persists in DataDir's database and survives restarts.
	EnableJobs bool
	// JobWorkers sizes the job worker pool (default 4).
	JobWorkers int
	// JobMaxPerOwner is the fair-share quota on concurrently running jobs
	// per owner DN (default 4; negative = unlimited).
	JobMaxPerOwner int
	// JobMaxQueuedPerOwner bounds one owner's queued jobs so a single
	// tenant cannot fill the queue (default: a quarter of the queue
	// bound; negative = unlimited).
	JobMaxQueuedPerOwner int
	// JobAgeInterval enables scheduler priority aging: every interval a
	// queued job's effective priority rises by JobAgeStep, so low-priority
	// work is not starved indefinitely. Zero keeps strict priority.
	JobAgeInterval time.Duration
	// JobAgeStep is the priority increment per elapsed JobAgeInterval
	// (default 1).
	JobAgeStep int
	// JobSpoolLimit bounds the bytes of one job output stream (or
	// collected sandbox file) staged to the artifact tree (default
	// 256 MiB). Requires FileRoot: artifacts live under the file
	// service's /jobs/<id>/ namespace, read-ACL'd to the submitting DN.
	JobSpoolLimit int64
	// JobArtifactRetention, when positive, garbage-collects terminal
	// jobs' artifact trees this long after they finish (records keep
	// their inline output heads). Zero keeps artifacts until job.delete.
	JobArtifactRetention time.Duration
	// EnableFederation starts the peer-aware meta-scheduler: job services
	// on peer servers are discovered through the discovery network, their
	// load polled, and queued work beyond FederationPressure forwarded to
	// the least-loaded peer under the owner's delegated identity. Requires
	// EnableJobs and EnableProxy (the delegation handoff), and discovery
	// publication (StationAddrs or LocalStation) so peers can be found —
	// and so peers can verify this server as a delegation issuer.
	EnableFederation bool
	// FederationPressure is the queued-job depth above which forwarding
	// starts (default 8; negative = forward whenever a peer is idle).
	FederationPressure int
	// PeerPollInterval is the meta-scheduler control-loop period: peer
	// load polls, forwarded-job watches, and forwarding decisions
	// (default 2s).
	PeerPollInterval time.Duration
	// FederationIssuers is the explicit allowlist of peer RPC endpoint
	// URLs this server trusts to vouch for delegated logins
	// (proxy.login_delegated with an issuer callback) — i.e. which peers
	// may forward jobs here under their users' identities. The list is
	// consulted only when EnableFederation is set; without federation,
	// or with an empty list, every remote issuer is refused. Discovery
	// deliberately plays no part in this decision: the station feed is
	// unauthenticated UDP, so a discovered peer is never a trusted one.
	// Peers whose addresses are only known at runtime can be added after
	// Start with Server.TrustFederationIssuers.
	FederationIssuers []string
	// StationAddrs, when non-empty, enables discovery publication to
	// these MonALISA-style station servers ("host:port" UDP addresses).
	StationAddrs []string
	// LocalStation, when set, additionally runs a station server inside
	// this process on the given UDP address ("127.0.0.1:0" for ephemeral)
	// and aggregates it into the local discovery cache — the JClarens
	// "fully fledged JINI client" mode of Figure 3.
	LocalStation string
	// EnablePortal serves the browser portal under /portal/.
	EnablePortal bool
	// TLS enables HTTPS with certificate client authentication. Session
	// resumption is governed by TLSConfig.TicketRotate/TicketSecret:
	// rotating ticket keys, optionally derived from a secret shared
	// across federation peers so one DNS name resumes everywhere.
	TLS *TLSConfig
	// DisableHTTP2 restricts the TLS listener to HTTP/1.1. By default
	// the server offers ALPN "h2" so one connection multiplexes
	// concurrent RPCs; clients that offer no ALPN (the /ws dialer, old
	// tooling) still negotiate HTTP/1.1.
	DisableHTTP2 bool
	// OpenSystem controls anonymous access to the system module
	// (default true, matching the paper's Figure 4 environment).
	OpenSystem *bool
	// DisableAuth skips the per-request session and ACL checks
	// (benchmark ablation A1 only).
	DisableAuth bool
	// MethodTimeout bounds each method invocation server-wide; handlers
	// observe the deadline through their request context. Zero means
	// unbounded (individual methods may still set Method.Timeout).
	MethodTimeout time.Duration
	// MaxBatchCalls caps the sub-calls one system.multicall may carry
	// (zero = core.DefaultMaxBatchCalls, negative = unlimited).
	MaxBatchCalls int
	// BatchParallelism sets how many system.multicall sub-calls may run
	// concurrently on a bounded worker pool. Results are always returned
	// in submission order. 0 or 1 keeps sub-call execution sequential —
	// the safe default for clients batching dependent calls.
	BatchParallelism int
	// EnableMetrics mounts a Prometheus text-format scrape endpoint at
	// /metrics: per-method request/fault counters and latency quantiles,
	// an aggregate latency histogram, and every registered gauge.
	EnableMetrics bool
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/. Off by default — the endpoints expose heap and CPU
	// profiles, so enable them only on trusted networks.
	EnablePprof bool
	// DisablePush skips mounting the push-event WebSocket endpoint at
	// /ws. The in-process event bus still runs (services publish either
	// way); only the network surface is withheld. Peers watching this
	// server's jobs then fall back to batch polling.
	DisablePush bool
	// RequestLog, when set, receives one structured entry per RPC
	// dispatch (method, trace and span IDs, duration, caller DN, fault)
	// and per job lifecycle transition. Nil disables request logging
	// with no dispatch overhead. Requests slower than TraceSlow log at
	// warn level with their span breakdown inline when the trace store
	// is enabled.
	RequestLog *slog.Logger
	// TraceStore controls the flight recorder: completed spans are
	// tail-sampled into a bounded in-process ring — every trace is
	// buffered briefly, but only slow, faulted, or force-sampled traces
	// survive — queryable via the trace.get/trace.search RPCs,
	// GET /debug/traces/<id>, and the clarens trace CLI, with sampled
	// trace IDs attached to /metrics histogram buckets as OpenMetrics
	// exemplars. Default true; set to disable.
	TraceStore *bool
	// TraceSlow is the tail-sampling latency threshold: a trace whose
	// local root takes at least this long is retained even without a
	// fault or force-sample mark (default 500ms).
	TraceSlow time.Duration
	// TraceCapacity bounds the span ring (default 4096 spans); the
	// pending tail-decision buffer is bounded by the same figure.
	TraceCapacity int
	// TelemetryInterval is the period for republishing aggregate RPC and
	// gauge telemetry (PublishTelemetry) onto the push-event bus and,
	// when StationAddrs or LocalStation is set, into the MonALISA station
	// network, so the same stations that carry service discovery also
	// carry load data (default 10s; negative disables).
	TelemetryInterval time.Duration
	// Logger receives framework logs (nil discards).
	Logger *log.Logger
}

// Server is a fully wired Clarens server instance.
type Server struct {
	core *core.Server

	// Files is the file service (nil unless Config.FileRoot was set).
	Files *fileservice.Service
	// Shell is the shell service (nil unless Config.ShellUserMap was set).
	Shell *shellsvc.Service
	// Proxies is the proxy service (nil unless Config.EnableProxy).
	Proxies *proxysvc.Service
	// Messages is the messaging service (nil unless Config.EnableMessaging).
	Messages *messaging.Service
	// Discovery is the discovery service (always present; publishing
	// requires StationAddrs or LocalStation).
	Discovery *discovery.Service
	// Jobs is the job execution service (nil unless Config.EnableJobs).
	Jobs *jobsvc.Service
	// Federation is the meta-scheduler forwarding queued jobs to peers
	// (nil unless Config.EnableFederation).
	Federation *metasched.Scheduler

	station    *monalisa.Station
	aggregator *discovery.Aggregator
	publisher  *monalisa.Publisher
	name       string

	telemetryStop chan struct{}
	telemetryWG   sync.WaitGroup

	issuerMu       sync.RWMutex
	trustedIssuers map[string]bool // delegation issuer URL allowlist
}

// NewServer builds and wires a server from the configuration.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Name == "" {
		cfg.Name = "clarens"
	}
	syncPolicy, err := db.ParseSyncPolicy(cfg.DBFsync)
	if err != nil {
		return nil, err
	}
	cs, err := core.NewServer(core.Config{
		DataDir:          cfg.DataDir,
		DB:               db.Options{Sync: syncPolicy, SyncInterval: cfg.DBFsyncInterval},
		MaxInFlight:      cfg.MaxInFlight,
		AdminDNs:         cfg.AdminDNs,
		SessionTTL:       cfg.SessionTTL,
		TLS:              cfg.TLS,
		DisableHTTP2:     cfg.DisableHTTP2,
		OpenSystem:       cfg.OpenSystem,
		DisableAuth:      cfg.DisableAuth,
		MethodTimeout:    cfg.MethodTimeout,
		MaxBatchCalls:    cfg.MaxBatchCalls,
		BatchParallelism: cfg.BatchParallelism,
		RequestLog:       cfg.RequestLog,
		TraceStore:       cfg.TraceStore == nil || *cfg.TraceStore,
		TraceSlow:        cfg.TraceSlow,
		TraceCapacity:    cfg.TraceCapacity,
		ServerName:       cfg.Name,
		Logger:           cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	if cfg.EnableMetrics {
		cs.MountMetrics("/metrics")
	}
	if cfg.EnablePprof {
		cs.MountPprof()
	}
	if !cfg.DisablePush {
		cs.MountWS("/ws")
	}
	s := &Server{core: cs, name: cfg.Name, trustedIssuers: make(map[string]bool, len(cfg.FederationIssuers))}
	for _, u := range cfg.FederationIssuers {
		s.trustedIssuers[normalizeIssuerURL(u)] = true
	}
	fail := func(err error) (*Server, error) {
		s.Close()
		return nil, err
	}

	if cfg.FileRoot != "" {
		fsvc, err := fileservice.New(cs, cfg.FileRoot)
		if err != nil {
			return fail(err)
		}
		if err := cs.Register(fsvc); err != nil {
			return fail(err)
		}
		fsvc.MountHTTP("/files/")
		s.Files = fsvc
	}

	if cfg.ShellUserMap != "" {
		um, err := shellsvc.LoadUserMap(cfg.ShellUserMap)
		if err != nil {
			return fail(err)
		}
		sandboxRoot := ""
		switch {
		case cfg.FileRoot != "":
			sandboxRoot = filepath.Join(cfg.FileRoot, "sandbox")
		case cfg.DataDir != "":
			sandboxRoot = filepath.Join(cfg.DataDir, "sandbox")
		default:
			return fail(fmt.Errorf("clarens: shell service needs FileRoot or DataDir for sandboxes"))
		}
		sh, err := shellsvc.New(cs, um, sandboxRoot)
		if err != nil {
			return fail(err)
		}
		if err := cs.Register(sh); err != nil {
			return fail(err)
		}
		// Authenticated users may reach the shell module; the user map is
		// the real gate (unmapped DNs are refused there).
		if err := cs.MethodACL().Set("shell", &acl.ACL{AllowDNs: []string{acl.EntryAny}, AllowGroups: []string{vo.AdminsGroup}}); err != nil {
			return fail(err)
		}
		s.Shell = sh
	}

	if cfg.EnableProxy {
		s.Proxies = proxysvc.New(cs)
		if err := cs.Register(s.Proxies); err != nil {
			return fail(err)
		}
	}

	if cfg.EnableMessaging {
		s.Messages = messaging.New(cs)
		if err := cs.Register(s.Messages); err != nil {
			return fail(err)
		}
		// Any authenticated principal may exchange messages; the service
		// itself refuses anonymous callers.
		if err := cs.MethodACL().Set("message", &acl.ACL{AllowDNs: []string{acl.EntryAny}, AllowGroups: []string{vo.AdminsGroup}}); err != nil {
			return fail(err)
		}
	}

	if cfg.LocalStation != "" {
		st, err := monalisa.NewStation(cfg.Name+"-station", cfg.LocalStation)
		if err != nil {
			return fail(err)
		}
		s.station = st
		s.aggregator = discovery.NewAggregator(cs.Store(), st)
	}
	var targets []string
	targets = append(targets, cfg.StationAddrs...)
	if s.station != nil {
		targets = append(targets, s.station.Addr().String())
	}
	if len(targets) > 0 {
		addrs, err := resolveUDP(targets)
		if err != nil {
			return fail(err)
		}
		pub, err := monalisa.NewPublisher(addrs...)
		if err != nil {
			return fail(err)
		}
		s.publisher = pub
	}
	s.Discovery = discovery.New(cs, cfg.Name, s.publisher)
	if err := cs.Register(s.Discovery); err != nil {
		return fail(err)
	}

	if cfg.EnableJobs {
		if s.Shell == nil {
			return fail(fmt.Errorf("clarens: job service requires ShellUserMap (payloads run in the shell sandbox)"))
		}
		shell := s.Shell
		exec := func(owner pki.DN, command string, stdout, stderr io.Writer) (jobsvc.ExecStatus, error) {
			code, user, err := shell.ExecStreamAs(owner, command, stdout, stderr)
			return jobsvc.ExecStatus{ExitCode: code, LocalUser: user}, err
		}
		var notify jobsvc.Notifier
		if s.Messages != nil {
			notify = s.Messages
		}
		// With a file service present, job results stage as artifacts:
		// stdout/stderr spool to the per-owner-ACL'd /jobs/<id>/ trees and
		// sandbox files matched by a job's collect globs ride along.
		var stager jobsvc.ArtifactStager
		var collector jobsvc.Collector
		if s.Files != nil {
			store, err := s.Files.EnableJobArtifacts()
			if err != nil {
				return fail(err)
			}
			stager = store
			collector = func(owner pki.DN, patterns []string, destDir string, fileLimit int64) ([]jobsvc.CollectedFile, []string, error) {
				files, skipped, err := shell.CollectInto(owner, patterns, destDir, fileLimit)
				out := make([]jobsvc.CollectedFile, len(files))
				for i, f := range files {
					out[i] = jobsvc.CollectedFile{Name: f.Name, Size: f.Size, MD5: f.MD5}
				}
				return out, skipped, err
			}
		}
		js, err := jobsvc.New(cs, jobsvc.Config{
			Workers:           cfg.JobWorkers,
			MaxPerOwner:       cfg.JobMaxPerOwner,
			MaxQueuedPerOwner: cfg.JobMaxQueuedPerOwner,
			AgeInterval:       cfg.JobAgeInterval,
			AgeStep:           cfg.JobAgeStep,
			SpoolLimit:        cfg.JobSpoolLimit,
			ArtifactRetention: cfg.JobArtifactRetention,
			Artifacts:         stager,
			Collector:         collector,
			Telemetry:         cs.Telemetry(),
			Events:            cs.RequestLog(),
			Spans:             cs.Spans(),
		}, exec, notify)
		if err != nil {
			return fail(err)
		}
		s.Jobs = js
		if err := cs.Register(js); err != nil {
			js.Stop()
			return fail(err)
		}
		// Any authenticated principal may reach the job module; ownership
		// checks inside the service are the real gate.
		if err := cs.MethodACL().Set("job", &acl.ACL{AllowDNs: []string{acl.EntryAny}, AllowGroups: []string{vo.AdminsGroup}}); err != nil {
			return fail(err)
		}
		cs.RegisterStatsSection("jobs", func() map[string]any {
			sn := js.Stats()
			return map[string]any{
				"queued": sn.Queued, "running": sn.Running, "remote": sn.Remote,
				"done": sn.Done, "failed": sn.Failed, "cancelled": sn.Cancelled,
				"workers": sn.Workers, "artifact_bytes": sn.ArtifactBytes,
				"throughput_per_s": sn.Throughput(),
			}
		})
		cs.RegisterHealthCheck("jobs", func() error {
			if js.Stats().Workers <= 0 {
				return fmt.Errorf("no job workers")
			}
			return nil
		})
	}

	// Delegation trust is an explicit operator decision: remote issuers
	// are honored only when federation is on AND the issuer URL is on the
	// configured allowlist (Config.FederationIssuers, extendable at
	// runtime with TrustFederationIssuers). The discovery cache is never
	// consulted — its station feed is unauthenticated UDP, and a gate fed
	// by it would let anyone who can send one station packet register a
	// URL and mint sessions for arbitrary DNs. Without federation both
	// hooks stay nil and proxysvc refuses every remote issuer.
	// Verification calls the allowlisted issuer's proxy.check_delegation
	// back over the issuer's pooled peer client.
	if s.Proxies != nil && cfg.EnableFederation {
		s.Proxies.TrustIssuer = s.issuerTrusted
		s.Proxies.VerifyRemote = verifyDelegationRemote
	}

	if cfg.EnableFederation {
		if s.Jobs == nil {
			return fail(fmt.Errorf("clarens: federation requires EnableJobs"))
		}
		if s.Proxies == nil {
			return fail(fmt.Errorf("clarens: federation requires EnableProxy (the delegation handoff carries job owners' identities to peers)"))
		}
		ms, err := metasched.New(s.Jobs, s.Discovery, s.Proxies, federationDialer, cfg.Logger, metasched.Config{
			ServerName:   cfg.Name,
			SelfURL:      s.RPCURL,
			Pressure:     cfg.FederationPressure,
			PollInterval: cfg.PeerPollInterval,
			EventDial:    federationEventDialer,
			Telemetry:    cs.Telemetry(),
			Spans:        cs.Spans(),
		})
		if err != nil {
			return fail(err)
		}
		s.Federation = ms
		reg := cs.Telemetry()
		reg.RegisterGauge("clarens.federation.peers", "live job-service peers in the federation table", func() float64 { return float64(ms.Stats().Peers) })
		reg.RegisterGauge("clarens.federation.forwarded", "jobs accepted by peers", func() float64 { return float64(ms.Stats().Forwarded) })
		reg.RegisterGauge("clarens.federation.pulled_back", "remote results finalized locally", func() float64 { return float64(ms.Stats().PulledBack) })
		reg.RegisterGauge("clarens.federation.fallbacks", "jobs returned to the local queue after a peer failure", func() float64 { return float64(ms.Stats().Fallbacks) })
		reg.RegisterGauge("clarens.federation.artifact_bytes", "artifact bytes fetched from peers and re-staged", func() float64 { return float64(ms.Stats().ArtifactBytes) })
		reg.RegisterGauge("clarens.federation.status_rpcs", "job.status calls issued by the remote watch loop", func() float64 { return float64(ms.Stats().StatusRPCs) })
		reg.RegisterGauge("clarens.federation.push_events", "peer job events received over push subscriptions", func() float64 { return float64(ms.Stats().PushEvents) })
		cs.RegisterStatsSection("federation", func() map[string]any {
			st := ms.Stats()
			return map[string]any{
				"peers": st.Peers, "forwarded": st.Forwarded, "pulled_back": st.PulledBack,
				"fallbacks": st.Fallbacks, "artifact_bytes": st.ArtifactBytes,
				"status_rpcs": st.StatusRPCs, "push_events": st.PushEvents,
				"push_watches": st.PushWatches, "breaker_open": st.BreakerOpen,
			}
		})
		ms.Start()
	} else if s.Jobs != nil {
		// Remote shadow records recovered from a previous federated run
		// have no meta-scheduler to watch them: pull the work back into
		// the local queue so nothing is stranded.
		if n := s.Jobs.RequeueAllRemote(); n > 0 && cfg.Logger != nil {
			cfg.Logger.Printf("clarens: re-queued %d remote jobs (federation disabled)", n)
		}
	}

	if cfg.EnablePortal {
		portal.New(cs, "/portal/").Mount()
	}

	// Telemetry republication: the stations that carry service discovery
	// also carry load/latency data, so any JClarens-style aggregator can
	// watch the whole federation's health from one station feed; /ws
	// subscribers get the same records with or without stations.
	if cfg.TelemetryInterval >= 0 {
		every := cfg.TelemetryInterval
		if every == 0 {
			every = 10 * time.Second
		}
		s.telemetryStop = make(chan struct{})
		s.telemetryWG.Add(1)
		go s.republishTelemetry(every)
	}
	return s, nil
}

// EventMonALISA is the bus event type carrying one MonALISA-style
// telemetry record (gauge or RPC-aggregate snapshot); the record's
// Farm/Cluster/Node become tags and its Params the event data.
const EventMonALISA = "monalisa.record"

// recordEvent converts a MonALISA record to its bus event form.
func recordEvent(rec *monalisa.Record) pubsub.Event {
	data := make(map[string]any, len(rec.Params))
	for k, v := range rec.Params {
		data[k] = v
	}
	return pubsub.Event{
		Type: EventMonALISA,
		Tags: map[string]string{"service": "monalisa", "farm": rec.Farm, "cluster": rec.Cluster, "node": rec.Node},
		Data: data,
	}
}

// Events returns the server's push-event bus, for in-process publishers
// and subscribers (custom services emitting their own events, local
// observers that skip the WebSocket hop).
func (s *Server) Events() *Bus { return s.core.Events() }

// republishTelemetry calls PublishTelemetry periodically until Close.
func (s *Server) republishTelemetry(every time.Duration) {
	defer s.telemetryWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.telemetryStop:
			return
		case <-t.C:
			s.PublishTelemetry()
		}
	}
}

// PublishTelemetry publishes one snapshot of the RPC aggregate latency
// (Node="rpc") and of every registered gauge (Node="gauges"), under
// Farm=<server name>, Cluster="telemetry": always as monalisa.record
// events on the push-event bus, and to the stations when any are
// configured. It is the server's one periodic monitoring feed, called
// every TelemetryInterval, and may also be invoked directly (tests,
// forced flushes). Returns the first station publish error.
func (s *Server) PublishTelemetry() error {
	reg := s.core.Telemetry()
	agg := reg.RPCAggregate()
	var err error
	publish := func(node string, params map[string]float64) {
		rec := &monalisa.Record{Farm: s.name, Cluster: "telemetry", Node: node, Params: params}
		s.core.Events().Publish(recordEvent(rec))
		if s.publisher != nil {
			if e := s.publisher.Publish(rec); err == nil {
				err = e
			}
		}
	}
	publish("rpc", map[string]float64{
		"clarens.rpc.requests":       float64(agg.Count),
		"clarens.rpc.latency_p50_ms": agg.Quantile(0.5).Seconds() * 1e3,
		"clarens.rpc.latency_p95_ms": agg.Quantile(0.95).Seconds() * 1e3,
		"clarens.rpc.latency_p99_ms": agg.Quantile(0.99).Seconds() * 1e3,
	})
	publish("gauges", reg.GaugeValues())
	return err
}

func resolveUDP(addrs []string) ([]*net.UDPAddr, error) {
	out := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		udp, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("clarens: station address %q: %w", a, err)
		}
		out = append(out, udp)
	}
	return out, nil
}

// Core exposes the underlying framework server for advanced wiring
// (ACL/VO managers, the HTTP mux, the database store).
func (s *Server) Core() *core.Server { return s.core }

// Register adds a custom service to the server.
func (s *Server) Register(svc Service) error { return s.core.Register(svc) }

// Use appends interceptors to the dispatch pipeline. They run in
// registration order inside the six built-in stages
// (recover/trace/shed/auth/deadline/acl) — immediately around each
// method handler, with the caller's identity already resolved and
// authorized. They observe every call that clears authorization,
// including each sub-call of a system.multicall batch and calls to
// unknown methods (which fault at the terminal stage); calls the
// built-in ACL stage denies are rejected before custom interceptors run.
// See the README's "Writing interceptors" section for a worked example.
func (s *Server) Use(ics ...Interceptor) { s.core.Use(ics...) }

// UseBefore inserts interceptors immediately before a named built-in
// pipeline stage (AnchorRecover, AnchorTrace, AnchorShed, AnchorAuth,
// AnchorDeadline, AnchorACL). Installing before AnchorAuth runs the
// stage with the caller's identity still unresolved — the position for
// IP allowlists or request decryption that must act ahead of any session
// lookup; installing before AnchorShed puts it just inside the trace
// stage, where the call's trace ID is already assigned. Unknown anchors
// are an error.
func (s *Server) UseBefore(anchor string, ics ...Interceptor) error {
	return s.core.UseBefore(anchor, ics...)
}

// Name returns the server's discovery name.
func (s *Server) Name() string { return s.name }

// Start listens on addr and serves in the background.
func (s *Server) Start(addr string) error { return s.core.Start(addr) }

// URL returns the base URL after Start.
func (s *Server) URL() string { return s.core.URL() }

// RPCURL returns the full RPC endpoint URL after Start.
func (s *Server) RPCURL() string { return s.core.URL() + s.core.RPCPath() }

// TrustFederationIssuers adds peer RPC endpoint URLs to the delegation
// issuer allowlist (see Config.FederationIssuers) — for federations whose
// peer addresses are only known at runtime (ephemeral ports, dynamic
// membership). The allowlist is only consulted when federation is
// enabled; otherwise remote issuers stay refused regardless.
func (s *Server) TrustFederationIssuers(urls ...string) {
	s.issuerMu.Lock()
	defer s.issuerMu.Unlock()
	for _, u := range urls {
		s.trustedIssuers[normalizeIssuerURL(u)] = true
	}
}

// issuerTrusted is the proxysvc.TrustIssuer gate: allowlist membership.
func (s *Server) issuerTrusted(url string) bool {
	s.issuerMu.RLock()
	defer s.issuerMu.RUnlock()
	return s.trustedIssuers[normalizeIssuerURL(url)]
}

// normalizeIssuerURL canonicalizes an issuer URL for allowlist lookup.
func normalizeIssuerURL(u string) string { return strings.TrimSuffix(u, "/") }

// StationAddr returns the in-process station's UDP address, or "".
func (s *Server) StationAddr() string {
	if s.station == nil {
		return ""
	}
	return s.station.Addr().String()
}

// Station returns the in-process station server, or nil.
func (s *Server) Station() *monalisa.Station { return s.station }

// PublishServices publishes all local services to the discovery network
// and starts periodic refresh every half TTL.
func (s *Server) PublishServices() error {
	if s.publisher == nil {
		return fmt.Errorf("clarens: no station servers configured")
	}
	url := s.RPCURL()
	if !strings.Contains(url, "://") || s.core.Addr() == "" {
		return fmt.Errorf("clarens: server must be started before publishing")
	}
	if _, err := s.Discovery.PublishAll(url); err != nil {
		return err
	}
	s.Discovery.StartPeriodicPublish(url, discovery.DefaultTTL/2)
	return nil
}

// NewSessionFor mints a session directly (admin bootstrap, tests,
// examples). Normal clients authenticate via TLS + system.auth or
// proxy.login.
func (s *Server) NewSessionFor(dn DN) (*Session, error) {
	return s.core.NewSessionFor(dn)
}

// GrantMethod attaches an allow-ACL for the given DNs/groups at a method
// hierarchy path (convenience over Core().MethodACL().Set).
func (s *Server) GrantMethod(path string, dns []string, groups []string) error {
	return s.core.MethodACL().Set(path, &acl.ACL{AllowDNs: dns, AllowGroups: groups})
}

// Shutdown drains the server gracefully, bounded by ctx: stop accepting
// new RPCs (rejected with the retryable "overloaded" fault so clients
// fail over to another peer), let in-flight calls finish, stop the
// federation loop, drain the job workers and checkpoint the queue
// durably, notify /ws subscribers with a "closing" frame, then compact
// and close the database. Work that outlives ctx is abandoned to the
// recovery path (running jobs re-queue on next start); the first error
// encountered is returned after shutdown completes.
func (s *Server) Shutdown(ctx context.Context) error {
	// 1. Quiesce the RPC surface while everything below still runs, so
	// in-flight calls (job.wait, message.wait, ...) complete normally.
	err := s.core.Drain(ctx)
	if s.telemetryStop != nil {
		close(s.telemetryStop)
		s.telemetryWG.Wait()
		s.telemetryStop = nil
	}
	// 2. Stop the forwarding loop before the workers so no new
	// delegations race the drain.
	if s.Federation != nil {
		s.Federation.Stop()
	}
	// 3. Drain workers and make the queue checkpoint durable.
	if s.Jobs != nil {
		if derr := s.Jobs.Drain(ctx); derr != nil && err == nil {
			err = derr
		}
	}
	if s.Discovery != nil {
		s.Discovery.StopPeriodic()
	}
	if s.aggregator != nil {
		s.aggregator.Close()
	}
	if s.publisher != nil {
		s.publisher.Close()
	}
	if s.station != nil {
		s.station.Close()
	}
	// 4. Broadcast "closing" on /ws, stop the listener, compact + close.
	if cerr := s.core.Shutdown(ctx); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Close shuts everything down.
func (s *Server) Close() error {
	if s.telemetryStop != nil {
		close(s.telemetryStop)
		s.telemetryWG.Wait()
		s.telemetryStop = nil
	}
	if s.Federation != nil {
		s.Federation.Stop()
	}
	if s.Jobs != nil {
		s.Jobs.Stop()
	}
	if s.Discovery != nil {
		s.Discovery.StopPeriodic()
	}
	if s.aggregator != nil {
		s.aggregator.Close()
	}
	if s.publisher != nil {
		s.publisher.Close()
	}
	if s.station != nil {
		s.station.Close()
	}
	return s.core.Close()
}
