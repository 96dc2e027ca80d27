// Command clarens-server runs a full Clarens web-service server: system,
// vo, acl, file, shell, proxy, job, and discovery services plus the
// browser portal, over HTTP or certificate-authenticated HTTPS.
//
// Minimal start:
//
//	clarens-server -addr 127.0.0.1:8080 -root /srv/clarens/files \
//	  -data /srv/clarens/db -admin "/O=site/OU=People/CN=Operator"
//
// TLS with grid-style client auth (see clarens-certgen):
//
//	clarens-server -addr :8443 -tls-id host.pem -tls-ca ca.pem ...
package main

import (
	"context"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clarens"
	"clarens/internal/pki"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		name         = flag.String("name", "clarens", "server name for discovery")
		dataDir      = flag.String("data", "", "persistent database directory (empty = in-memory)")
		dbFsync      = flag.String("db-fsync", "interval", "WAL fsync policy: always (acknowledged writes survive power loss), interval (bounded loss window), never (OS page cache only)")
		dbFsyncInt   = flag.Duration("db-fsync-interval", 100*time.Millisecond, "background fsync period under -db-fsync=interval")
		maxInflight  = flag.Int("max-inflight", 0, "bound on concurrently executing RPCs; beyond it calls are shed with a retryable fault (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget: in-flight RPCs and running jobs get this long to finish")
		fileRoot     = flag.String("root", "", "file service virtual root directory")
		userMap      = flag.String("usermap", "", "path to .clarens_user_map (enables the shell service)")
		admins       = flag.String("admins", "", "comma-separated admin DNs")
		stations     = flag.String("stations", "", "comma-separated station server UDP addresses to publish to")
		localStation = flag.String("local-station", "", "run an in-process station server on this UDP address (e.g. 127.0.0.1:9090)")
		portal       = flag.Bool("portal", true, "serve the browser portal under /portal/")
		proxySvc     = flag.Bool("proxy", true, "enable the proxy certificate store")
		messagingSvc = flag.Bool("messaging", true, "enable the store-and-forward message service")
		jobsSvc      = flag.Bool("jobs", false, "enable the asynchronous job service (requires -usermap)")
		jobWorkers   = flag.Int("job-workers", 4, "job worker pool size")
		jobPerOwner  = flag.Int("job-max-per-owner", 4, "fair-share cap on concurrently running jobs per owner DN (negative = unlimited)")
		jobQueued    = flag.Int("job-max-queued-per-owner", 0, "cap on queued jobs per owner DN (0 = quarter of the queue bound, negative = unlimited)")
		jobAge       = flag.Duration("job-age-interval", 0, "priority aging period: a queued job's effective priority rises continuously by -job-age-step per period waited (0 = strict priority)")
		jobAgeStep   = flag.Int("job-age-step", 1, "effective-priority increment per aging period waited")
		jobSpool     = flag.Int64("job-spool-limit", 0, "per-stream byte cap for staged job artifacts (0 = 256 MiB default; requires -fileroot)")
		jobRetention = flag.Duration("job-artifact-retention", 0, "garbage-collect terminal jobs' artifact trees after this long (0 = keep until job.delete)")
		federation   = flag.Bool("federation", false, "forward queued jobs to discovered peer servers (requires -jobs, -proxy, and a station network)")
		fedPressure  = flag.Int("federation-pressure", 8, "queued-job depth above which the meta-scheduler forwards work (negative = whenever a peer is idle)")
		peerPoll     = flag.Duration("peer-poll", 2*time.Second, "federation peer poll / remote watch period")
		fedIssuers   = flag.String("federation-issuers", "", "comma-separated peer RPC endpoint URLs trusted to vouch for delegated logins (empty = refuse every remote issuer)")
		publish      = flag.Bool("publish", false, "publish services to the discovery network on startup")
		metrics      = flag.Bool("metrics", true, "serve Prometheus text metrics at /metrics")
		traceStore   = flag.Bool("trace-store", true, "keep a tail-sampled span store queryable via trace.get/trace.search and /debug/traces/")
		traceSlow    = flag.Duration("trace-slow", 0, "latency threshold above which a trace is retained (0 = 500ms default)")
		traceCap     = flag.Int("trace-capacity", 0, "span ring capacity (0 = 4096 default)")
		push         = flag.Bool("push", true, "serve the push-event WebSocket endpoint at /ws")
		mintSession  = flag.String("mint-session", "", "mint a session for this DN on startup and print the token (bootstrap/smoke tests)")
		pprofFlag    = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (trusted networks only)")
		reqLog       = flag.Bool("request-log", false, "emit one JSON log line per RPC dispatch and job lifecycle event to stderr")
		telemetryInt = flag.Duration("telemetry-interval", 10*time.Second, "period for republishing RPC/gauge telemetry to the event bus and the station network (negative = off)")
		tlsID        = flag.String("tls-id", "", "server identity PEM bundle (cert+key) enabling HTTPS")
		tlsCA        = flag.String("tls-ca", "", "CA certificate PEM for verifying client certificates")
		requireCert  = flag.Bool("tls-require-cert", false, "require a verified client certificate")
		http2Flag    = flag.Bool("http2", true, "offer HTTP/2 (ALPN h2) on the TLS listener so one connection multiplexes concurrent RPCs")
		ticketRotate = flag.Duration("tls-ticket-rotate", 0, "rotate TLS session-ticket keys on this period (0 = Go's per-process automatic rotation)")
		ticketSecret = flag.String("tls-ticket-secret", "", "derive ticket keys from this shared secret so federation peers behind one DNS name resume each other's sessions (pair with -tls-ticket-rotate)")
	)
	flag.Parse()

	cfg := clarens.Config{
		Name:                 *name,
		DataDir:              *dataDir,
		DBFsync:              *dbFsync,
		DBFsyncInterval:      *dbFsyncInt,
		MaxInFlight:          *maxInflight,
		FileRoot:             *fileRoot,
		ShellUserMap:         *userMap,
		EnableProxy:          *proxySvc,
		EnableMessaging:      *messagingSvc,
		EnableJobs:           *jobsSvc,
		JobWorkers:           *jobWorkers,
		JobMaxPerOwner:       *jobPerOwner,
		JobMaxQueuedPerOwner: *jobQueued,
		JobAgeInterval:       *jobAge,
		JobAgeStep:           *jobAgeStep,
		JobSpoolLimit:        *jobSpool,
		JobArtifactRetention: *jobRetention,
		EnableFederation:     *federation,
		FederationPressure:   *fedPressure,
		PeerPollInterval:     *peerPoll,
		EnablePortal:         *portal,
		LocalStation:         *localStation,
		EnableMetrics:        *metrics,
		TraceStore:           traceStore,
		TraceSlow:            *traceSlow,
		TraceCapacity:        *traceCap,
		EnablePprof:          *pprofFlag,
		DisablePush:          !*push,
		TelemetryInterval:    *telemetryInt,
		Logger:               log.New(os.Stderr, "clarens: ", log.LstdFlags),
	}
	if *reqLog {
		cfg.RequestLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *admins != "" {
		cfg.AdminDNs = splitList(*admins)
	}
	if *fedIssuers != "" {
		cfg.FederationIssuers = splitList(*fedIssuers)
	}
	if *stations != "" {
		cfg.StationAddrs = splitList(*stations)
	}
	if *tlsID != "" {
		pemBytes, err := os.ReadFile(*tlsID)
		if err != nil {
			log.Fatalf("read -tls-id: %v", err)
		}
		id, err := pki.ParseIdentityPEM(pemBytes)
		if err != nil {
			log.Fatalf("parse -tls-id: %v", err)
		}
		tc := &clarens.TLSConfig{
			Identity:          id,
			RequireClientCert: *requireCert,
			TicketRotate:      *ticketRotate,
			TicketSecret:      *ticketSecret,
		}
		if *tlsCA != "" {
			caBytes, err := os.ReadFile(*tlsCA)
			if err != nil {
				log.Fatalf("read -tls-ca: %v", err)
			}
			caCert, err := pki.ParseCertPEM(caBytes)
			if err != nil {
				log.Fatalf("parse -tls-ca: %v", err)
			}
			pool := x509.NewCertPool()
			pool.AddCert(caCert)
			tc.ClientCAs = pool
		}
		cfg.TLS = tc
		cfg.DisableHTTP2 = !*http2Flag
	}

	srv, err := clarens.NewServer(cfg)
	if err != nil {
		log.Fatalf("create server: %v", err)
	}
	if err := srv.Start(*addr); err != nil {
		log.Fatalf("start: %v", err)
	}
	fmt.Printf("%s\nserving at %s (rpc endpoint %s)\n", clarens.Version, srv.URL(), srv.RPCURL())
	if *metrics {
		fmt.Printf("metrics at %s/metrics\n", srv.URL())
	}
	if *traceStore {
		fmt.Printf("traces at %s/debug/traces/\n", srv.URL())
	}
	if *pprofFlag {
		fmt.Printf("pprof at %s/debug/pprof/\n", srv.URL())
	}
	if *push {
		fmt.Printf("push events at %s/ws\n", srv.URL())
	}
	if *mintSession != "" {
		dn, err := clarens.ParseDN(*mintSession)
		if err != nil {
			log.Fatalf("parse -mint-session DN: %v", err)
		}
		sess, err := srv.NewSessionFor(dn)
		if err != nil {
			log.Fatalf("mint session: %v", err)
		}
		fmt.Printf("session %s minted for %s\n", sess.ID, dn)
	}
	if srv.StationAddr() != "" {
		fmt.Printf("station server on udp://%s\n", srv.StationAddr())
	}
	if *publish {
		if err := srv.PublishServices(); err != nil {
			log.Printf("publish: %v", err)
		} else {
			fmt.Println("services published to the discovery network")
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining: refusing new RPCs, finishing in-flight work")
	// A second signal skips the drain and tears down immediately.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("graceful shutdown: %v", err)
		}
	}()
	select {
	case <-done:
		fmt.Println("shutdown complete")
	case <-sig:
		fmt.Println("second signal: hard stop")
		srv.Close()
	}
}

func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e != "" {
			out = append(out, e)
		}
	}
	return out
}
