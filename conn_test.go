package clarens

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tlsServer starts a TLS server with grid-style client auth and returns
// it with the CA and an issued user identity.
func tlsServer(t *testing.T, mutate func(*Config)) (*Server, *CA, *Identity) {
	t.Helper()
	ca, err := NewCA(MustParseDN("/O=testgrid/CN=Conn CA"))
	if err != nil {
		t.Fatal(err)
	}
	host, err := ca.IssueHost(MustParseDN("/O=testgrid/OU=Services/CN=host\\/localhost"),
		[]string{"localhost", "127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser(MustParseDN("/O=testgrid/OU=People/CN=Conn User"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The issued user doubles as an admin so tests can subscribe to
	// arbitrary event modules without per-module ACL setup.
	cfg := Config{
		Name:     "conntest",
		AdminDNs: []string{adminDN.String(), user.DN().String()},
		TLS:      &TLSConfig{Identity: host, ClientCAs: ca.Pool()},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, ca, user
}

// serverMetric scrapes one gauge value from the server's telemetry in
// Prometheus text form — the same bytes /metrics would serve.
func serverMetric(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	srv.core.Telemetry().WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse metric %s: %v (line %q)", name, err, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	return 0
}

// A reconnecting client must resume the TLS session from its ticket
// cache instead of full-handshaking — and the resumed connection must
// keep the certificate-authenticated DN (Go restores the peer
// certificates from the ticket; the certificate callbacks are skipped,
// which is exactly the saved work).
func TestTLSResumptionKeepsClientCertDN(t *testing.T) {
	srv, ca, user := tlsServer(t, func(cfg *Config) {
		cfg.TLS.TicketRotate = time.Hour
	})
	c, err := Dial(srv.URL(), WithIdentity(user), WithRootCAs(ca.Pool()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	who, err := CallAs[string](c, "system.whoami")
	if err != nil || who != user.DN().String() {
		t.Fatalf("whoami over fresh connection = %q, %v", who, err)
	}
	// Drop the pooled connection; the next call must dial anew.
	c.Close()
	who, err = CallAs[string](c, "system.whoami")
	if err != nil {
		t.Fatal(err)
	}
	if who != user.DN().String() {
		t.Errorf("whoami over resumed connection = %q, want %q (client-cert DN lost across resumption)", who, user.DN())
	}

	cs := c.ConnStats()
	if cs.Opened != 2 || cs.Handshakes != 2 {
		t.Errorf("conn stats = %+v, want 2 opened / 2 handshakes", cs)
	}
	if cs.Resumed != 1 {
		t.Errorf("conn stats = %+v, want exactly the second handshake resumed", cs)
	}
	if got := serverMetric(t, srv, "clarens_conn_handshakes_resumed"); got < 1 {
		t.Errorf("server clarens_conn_handshakes_resumed = %v, want >= 1", got)
	}
	if got := serverMetric(t, srv, "clarens_conn_handshakes_total"); got < 2 {
		t.Errorf("server clarens_conn_handshakes_total = %v, want >= 2", got)
	}
}

// Concurrent calls against an h2 server must multiplex over the one
// negotiated connection instead of fanning out new dials.
func TestHTTP2MultiplexesConcurrentCalls(t *testing.T) {
	srv, ca, user := tlsServer(t, nil)
	c, err := Dial(srv.URL(), WithIdentity(user), WithRootCAs(ca.Pool()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Establish the connection first so the concurrent burst below finds
	// a live h2 conn to ride (the transport has no dial singleflight).
	if _, err := CallAs[string](c, "system.ping"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			msg := fmt.Sprintf("mux-%d", n)
			got, err := c.CallCtx(context.Background(), "system.echo", msg)
			if err != nil {
				errs <- err
				return
			}
			if got != msg {
				errs <- fmt.Errorf("echo = %v, want %q", got, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs := c.ConnStats()
	if cs.HTTP2 < 1 {
		t.Fatalf("conn stats = %+v: no handshake negotiated h2 — server is not multiplexing", cs)
	}
	if cs.Opened != 1 {
		t.Errorf("conn stats = %+v: 41 calls should share 1 connection over h2", cs)
	}
	if got := serverMetric(t, srv, "clarens_conn_http2_requests"); got < 40 {
		t.Errorf("server clarens_conn_http2_requests = %v, want >= 40", got)
	}
	// Batches multiplex the same way.
	b := c.Batch()
	b.Add("system.ping")
	b.Add("system.echo", "batched")
	rs, err := b.Run()
	if err != nil || len(rs) != 2 || rs[0].Err != nil || rs[1].Err != nil {
		t.Fatalf("batch over h2 = %v, %v", rs, err)
	}
	if cs := c.ConnStats(); cs.Opened != 1 {
		t.Errorf("conn stats after batch = %+v, still want 1 connection", cs)
	}
}

// The /ws upgrade is an HTTP/1.1-only handshake: on a server speaking
// h2 it must still work via ALPN fallback — including after the
// client's transport has done h2 RPCs (which appends "h2" to the shared
// TLS config's NextProtos in place; the ws dial must not offer it).
func TestWSSubscribeOnHTTP2Server(t *testing.T) {
	srv, ca, user := tlsServer(t, nil)
	c, err := Dial(srv.URL(), WithIdentity(user), WithRootCAs(ca.Pool()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// RPC first: initializes the transport's h2 support, mutating the
	// shared TLS config — the regression this test pins down.
	if _, err := CallAs[string](c, "system.ping"); err != nil {
		t.Fatal(err)
	}
	if cs := c.ConnStats(); cs.HTTP2 < 1 {
		t.Fatalf("conn stats = %+v: test needs an h2-speaking server", cs)
	}
	sess, err := srv.NewSessionFor(user.DN())
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	sub, err := c.Subscribe("type=conntest.*")
	if err != nil {
		t.Fatalf("ws subscribe against h2 server: %v", err)
	}
	defer sub.Close()
	srv.Events().Publish(Event{Type: "conntest.ping"})
	select {
	case ev := <-sub.Events():
		if ev.Type != "conntest.ping" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event over /ws within 5s")
	}
}

// The go-xmlrpc snippet's "TODO: support persistent connections",
// finished: sequential calls ride one kept-alive TCP connection.
func TestSequentialCallsReuseOneConnection(t *testing.T) {
	srv, c := startFull(t)
	defer srv.Close()

	var dials atomic.Int64
	counted, err := Dial(srv.URL(), WithDialer(func(network, addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial(network, addr)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer counted.Close()
	for i := 0; i < 100; i++ {
		if _, err := counted.Call("system.ping"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("100 sequential calls opened %d TCP connections, want 1", n)
	}
	cs := counted.ConnStats()
	if cs.Opened != 1 || cs.Reused != 99 {
		t.Errorf("conn stats = %+v, want 1 opened / 99 reused", cs)
	}
	_ = c
}

// h2 must degrade gracefully everywhere it cannot apply: a custom
// fault-injection dialer over plain HTTP (the chaos path), a server
// with h2 disabled, and a client with h2 disabled.
func TestHTTP2DisabledGracefully(t *testing.T) {
	t.Run("custom dialer over plain http", func(t *testing.T) {
		srv, _ := startFull(t)
		c, err := Dial(srv.URL(), WithDialer(net.Dial))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call("system.ping"); err != nil {
			t.Fatal(err)
		}
		if cs := c.ConnStats(); cs.HTTP2 != 0 || cs.Handshakes != 0 {
			t.Errorf("conn stats = %+v over plain http, want no TLS at all", cs)
		}
	})
	t.Run("server h2 off", func(t *testing.T) {
		srv, ca, user := tlsServer(t, func(cfg *Config) { cfg.DisableHTTP2 = true })
		c, err := Dial(srv.URL(), WithIdentity(user), WithRootCAs(ca.Pool()))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call("system.ping"); err != nil {
			t.Fatal(err)
		}
		if cs := c.ConnStats(); cs.HTTP2 != 0 || cs.Handshakes != 1 {
			t.Errorf("conn stats = %+v, want 1 handshake negotiating http/1.1", cs)
		}
	})
	t.Run("client h2 off", func(t *testing.T) {
		srv, ca, user := tlsServer(t, nil)
		c, err := Dial(srv.URL(), WithIdentity(user), WithRootCAs(ca.Pool()), WithHTTP2(false))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call("system.ping"); err != nil {
			t.Fatal(err)
		}
		if cs := c.ConnStats(); cs.HTTP2 != 0 || cs.Handshakes != 1 {
			t.Errorf("conn stats = %+v, want 1 handshake negotiating http/1.1", cs)
		}
	})
}
