package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clarens/internal/acl"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/ws"
)

// startWS exposes a server's handler (with /ws mounted) over a real
// listener, since the WebSocket handshake needs a hijackable conn.
func startWS(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	s.MountWS("/ws")
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func dialWS(t *testing.T, url, session string) *ws.Conn {
	t.Helper()
	hdr := http.Header{}
	if session != "" {
		hdr.Set(SessionHeader, session)
	}
	conn, err := ws.Dial(url+"/ws", hdr, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("dial /ws: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func sendFrame(t *testing.T, conn *ws.Conn, f pubsub.Frame) {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(ws.OpText, data); err != nil {
		t.Fatal(err)
	}
}

func readFrame(t *testing.T, conn *ws.Conn) pubsub.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, data, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	var f pubsub.Frame
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("unmarshal frame %q: %v", data, err)
	}
	return f
}

func sessionID(t *testing.T, s *Server, dn pki.DN) string {
	t.Helper()
	sess, err := s.NewSessionFor(dn)
	if err != nil {
		t.Fatal(err)
	}
	return sess.ID
}

func TestWSRequiresSession(t *testing.T) {
	s := newTestServer(t)
	hs := startWS(t, s)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/ws", nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous /ws got %d, want 401", resp.StatusCode)
	}
}

func TestWSSessionQueryParam(t *testing.T) {
	s := newTestServer(t)
	hs := startWS(t, s)
	// Browsers cannot set headers on a WS dial: ?session= must work.
	sid := sessionID(t, s, adminDN)
	conn, err := ws.Dial(hs.URL+"/ws?session="+sid, nil, nil, 5*time.Second)
	if err != nil {
		t.Fatalf("dial with ?session=: %v", err)
	}
	conn.Close()
}

func TestWSSubscribeACL(t *testing.T) {
	s := newTestServer(t)
	if err := s.MethodACL().Set("job", &acl.ACL{AllowDNs: []string{userDN.String()}}); err != nil {
		t.Fatal(err)
	}
	hs := startWS(t, s)

	// The authorized user may watch the job module...
	conn := dialWS(t, hs.URL, sessionID(t, s, userDN))
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "a", Query: "type=job.state"})
	if f := readFrame(t, conn); f.Op != pubsub.OpSubscribed {
		t.Fatalf("authorized subscribe: %+v", f)
	}
	// ...but not an unrelated module, nor run an unscoped query.
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "b", Query: "service=proxy"})
	if f := readFrame(t, conn); f.Op != pubsub.OpError {
		t.Fatalf("unauthorized module subscribe: %+v", f)
	}
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "c", Query: "owner=x"})
	if f := readFrame(t, conn); f.Op != pubsub.OpError {
		t.Fatalf("unscoped subscribe by non-admin: %+v", f)
	}

	// Admins are exempt from both restrictions.
	admin := dialWS(t, hs.URL, sessionID(t, s, adminDN))
	sendFrame(t, admin, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "all", Query: "owner=x"})
	if f := readFrame(t, admin); f.Op != pubsub.OpSubscribed {
		t.Fatalf("admin unscoped subscribe: %+v", f)
	}
}

func TestWSDeliveryAndOwnerScoping(t *testing.T) {
	s := newTestServer(t)
	if err := s.MethodACL().Set("job", &acl.ACL{AllowDNs: []string{acl.EntryAny}}); err != nil {
		t.Fatal(err)
	}
	hs := startWS(t, s)
	conn := dialWS(t, hs.URL, sessionID(t, s, userDN))
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "jobs", Query: "type=job.state"})
	if f := readFrame(t, conn); f.Op != pubsub.OpSubscribed {
		t.Fatalf("subscribe: %+v", f)
	}

	other := pki.MustParseDN("/O=grid/OU=People/CN=Other")
	s.Events().Publish(pubsub.Event{Type: "job.state",
		Tags: map[string]string{"service": "job", "job_id": "j-other", "owner": other.String()}})
	s.Events().Publish(pubsub.Event{Type: "job.state",
		Tags: map[string]string{"service": "job", "job_id": "j-mine", "owner": userDN.String()}})

	f := readFrame(t, conn)
	if f.Op != pubsub.OpEvent || f.Event == nil {
		t.Fatalf("expected event frame, got %+v", f)
	}
	if f.Event.Tags["job_id"] != "j-mine" {
		t.Fatalf("owner scoping failed: user received %q", f.Event.Tags["job_id"])
	}
	if f.ID != "jobs" {
		t.Fatalf("event frame carries id %q, want the subscription id", f.ID)
	}

	// Unsubscribe stops delivery.
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpUnsubscribe, ID: "jobs"})
	if f := readFrame(t, conn); f.Op != pubsub.OpUnsubscribed {
		t.Fatalf("unsubscribe: %+v", f)
	}
}

func TestWSServerShutdownClosesSessions(t *testing.T) {
	s, err := NewServer(Config{AdminDNs: []string{adminDN.String()}})
	if err != nil {
		t.Fatal(err)
	}
	hs := startWS(t, s)
	conn := dialWS(t, hs.URL, sessionID(t, s, adminDN))
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpSubscribe, ID: "x", Query: "type=job.*"})
	if f := readFrame(t, conn); f.Op != pubsub.OpSubscribed {
		t.Fatalf("subscribe: %+v", f)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The session must observe the shutdown promptly: a closing
		// frame, then the transport going away.
		for {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, data, err := conn.ReadMessage()
			if err != nil {
				return
			}
			var f pubsub.Frame
			if json.Unmarshal(data, &f) == nil && f.Op == pubsub.OpClosing {
				return
			}
		}
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WS session not closed by server shutdown")
	}
}

func TestWSPingFrame(t *testing.T) {
	s := newTestServer(t)
	hs := startWS(t, s)
	conn := dialWS(t, hs.URL, sessionID(t, s, adminDN))
	sendFrame(t, conn, pubsub.Frame{Op: pubsub.OpPing, ID: "k"})
	if f := readFrame(t, conn); f.Op != pubsub.OpPong || f.ID != "k" {
		t.Fatalf("ping answer: %+v", f)
	}
}

// TestWSSessionEndsOnFrameOverReadLimit: /ws reads only subscription ops
// from a client, so a client frame over 64 KiB ends the session, as a
// frame over ws.MaxMessage does on an unlimited connection.
func TestWSSessionEndsOnFrameOverReadLimit(t *testing.T) {
	s := newTestServer(t)
	hs := startWS(t, s)
	conn := dialWS(t, hs.URL, sessionID(t, s, adminDN))
	if err := conn.WriteMessage(ws.OpText, make([]byte, 64<<10+1)); err != nil {
		return // the server already ended the session
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, data, err := conn.ReadMessage(); err == nil {
		t.Fatalf("the session answered %.80q instead of ending", data)
	}
}
