package clarens

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"clarens/internal/jobsvc"
	"clarens/internal/pubsub"
)

// syncLogBuffer collects slog output from server goroutines.
type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFederatedJobKeepsTraceAcrossServers is the acceptance path for
// end-to-end tracing: a job submitted with a client trace ID and
// forwarded to a peer logs that same trace ID in BOTH servers' request
// logs, and both job records carry it.
func TestFederatedJobKeepsTraceAcrossServers(t *testing.T) {
	const trace = "e2e-trace-0123456789abcdef"
	logs := make([]*syncLogBuffer, 2)
	servers := startFederation(t, 2, func(i int, cfg *Config) {
		logs[i] = &syncLogBuffer{}
		cfg.RequestLog = slog.New(slog.NewJSONHandler(logs[i], nil))
		if i == 0 {
			cfg.FederationPressure = -1 // forward whenever the peer is idle
		}
	})
	front, peer := servers[0], servers[1]

	c, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := front.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	// Park the front's two workers so the traced job must execute remotely.
	for i := 0; i < 2; i++ {
		if _, err := CallAs[string](c, "job.submit", "sleep 3", 100, 0); err != nil {
			t.Fatal(err)
		}
	}

	c.SetTrace(trace)
	id, err := CallAs[string](c, "job.submit", "echo traced", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var j *jobsvc.Job
	for {
		got, ok := front.Jobs.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		j = got
		if jobsvc.Terminal(j.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j.State != jobsvc.StateDone {
		t.Fatalf("job state = %s (%s)", j.State, j.Error)
	}
	if j.Peer != peer.Name() {
		t.Fatalf("job ran on %q, want forwarded to %q", j.Peer, peer.Name())
	}
	if j.Trace != trace {
		t.Errorf("submitting server job trace = %q, want %q", j.Trace, trace)
	}

	// The peer's shadow of the job carries the same trace.
	peerJobs, err := peer.Jobs.List("", "")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pj := range peerJobs {
		if pj.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Errorf("no job on peer carries trace %q", trace)
	}

	// Both servers' request logs mention the trace: the front from the
	// direct POSTs, the peer from the forwarded (batched) job.submit whose
	// multicall entry carried the trace across the wire.
	for i, lg := range logs {
		if !strings.Contains(lg.String(), trace) {
			t.Errorf("server %d request log never saw trace %q:\n%s", i, trace, lg.String())
		}
	}
	if !strings.Contains(logs[1].String(), `"method":"job.submit"`) {
		t.Errorf("peer log lacks the forwarded job.submit:\n%s", logs[1].String())
	}
}

// TestServerMetricsEndpoint exercises the public Config.EnableMetrics
// path over a real listener.
func TestServerMetricsEndpoint(t *testing.T) {
	srv, err := NewServer(Config{Name: "metrics-test", EnableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := CallAs[string](c, "system.ping"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, w := range []string{
		`clarens_rpc_requests_total{method="system.ping"}`,
		`clarens_rpc_latency_seconds{method="system.ping",quantile="0.5"}`,
		`clarens_rpc_latency_all_seconds_bucket{le=`,
	} {
		if !strings.Contains(string(body), w) {
			t.Errorf("/metrics lacks %q", w)
		}
	}
}

// TestPublishTelemetryReachesStation verifies the MonALISA republication
// leg: one forced publish lands RPC latency and gauge records on the
// in-process station.
func TestPublishTelemetryReachesStation(t *testing.T) {
	srv, err := NewServer(Config{
		Name:              "tele-station",
		LocalStation:      "127.0.0.1:0",
		TelemetryInterval: -1, // publish manually below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := CallAs[string](c, "system.ping"); err != nil {
		t.Fatal(err)
	}

	if err := srv.PublishTelemetry(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := srv.Station().Query("tele-station", "telemetry", "rpc")
		if len(recs) == 1 {
			p := recs[0].Params
			if p["clarens.rpc.requests"] < 1 {
				t.Errorf("republished requests = %v, want >= 1", p["clarens.rpc.requests"])
			}
			if _, ok := p["clarens.rpc.latency_p99_ms"]; !ok {
				t.Errorf("republished params lack latency quantiles: %v", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("telemetry record never reached the station")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Gauge record rides along (core registers uptime/session gauges).
	deadline = time.Now().Add(5 * time.Second)
	for {
		recs := srv.Station().Query("tele-station", "telemetry", "gauges")
		if len(recs) == 1 {
			if _, ok := recs[0].Params["clarens.core.uptime_seconds"]; !ok {
				t.Errorf("gauge record lacks clarens.core.uptime_seconds: %v", recs[0].Params)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gauge record never reached the station")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishTelemetryReachesBus verifies the push-bus leg of the one
// monitoring feed: with no station configured, a forced publish still
// delivers the RPC-aggregate record and the gauge record — job gauges
// included — to monalisa.record subscribers.
func TestPublishTelemetryReachesBus(t *testing.T) {
	cfg := fullConfig(t)
	cfg.LocalStation = ""
	cfg.EnableJobs = true
	cfg.JobWorkers = 3
	cfg.TelemetryInterval = -1 // publish manually below
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub := srv.Events().Subscribe("test", func(ev *pubsub.Event) bool { return ev.Type == EventMonALISA }, 0)
	if err := srv.PublishTelemetry(); err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	nodes := map[string]map[string]any{}
	for ev := range sub.Events() {
		if ev.Tags["farm"] != "testsrv" || ev.Tags["cluster"] != "telemetry" || nodes[ev.Tags["node"]] != nil {
			t.Errorf("unexpected or repeated record: %v", ev.Tags)
		}
		nodes[ev.Tags["node"]] = ev.Data
	}
	if len(nodes) != 2 || nodes["rpc"] == nil || nodes["gauges"] == nil {
		t.Fatalf("records = %v, want one rpc and one gauges", nodes)
	}
	if _, ok := nodes["rpc"]["clarens.rpc.requests"]; !ok {
		t.Errorf("rpc record = %v", nodes["rpc"])
	}
	if g := nodes["gauges"]; g["clarens.job.queued"] != 0.0 || g["clarens.job.workers"] != 3.0 {
		t.Errorf("gauges record: queued=%v workers=%v, want 0 and 3", g["clarens.job.queued"], g["clarens.job.workers"])
	}
}
