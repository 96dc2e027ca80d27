package clarens

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"clarens/internal/core"
	"clarens/internal/jobsvc"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
	"clarens/internal/ws"
)

// TestGracefulDrainCompletesInFlightWork is the drain acceptance path:
// Shutdown stops accepting new RPCs (shedding them with the retryable
// overload fault), lets an in-flight message.wait long-poll and a
// running job finish, tells /ws subscribers the server is closing, and
// leaves the job queue durably checkpointed so a queued-but-never-run
// job survives into the next start.
func TestGracefulDrainCompletesInFlightWork(t *testing.T) {
	cfg := fullConfig(t)
	cfg.DataDir = t.TempDir()
	cfg.EnableJobs = true
	cfg.JobWorkers = 1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}

	// A push subscriber that must be told the server is going away.
	hdr := http.Header{}
	hdr.Set(core.SessionHeader, sess.ID)
	wsConn, err := ws.Dial(srv.URL()+"/ws", hdr, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wsConn.Close()
	sub, _ := json.Marshal(pubsub.Frame{Op: pubsub.OpSubscribe, ID: "drain", Query: "type=job.*"})
	if err := wsConn.WriteMessage(ws.OpText, sub); err != nil {
		t.Fatal(err)
	}
	wsConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, data, err := wsConn.ReadMessage(); err != nil {
		t.Fatalf("subscribe ack: %v", err)
	} else {
		var f pubsub.Frame
		if json.Unmarshal(data, &f) != nil || f.Op != pubsub.OpSubscribed {
			t.Fatalf("subscribe ack = %s", data)
		}
	}

	c, err := Dial(srv.URL(), WithSession(sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One job running when the drain starts, one still queued behind it
	// (a single worker guarantees the ordering).
	runID, err := CallAs[string](c, "job.submit", "sleep 0.4 && echo drained")
	if err != nil {
		t.Fatal(err)
	}
	waitStart := time.Now().Add(10 * time.Second)
	for srv.Jobs.Stats().Running < 1 {
		if time.Now().After(waitStart) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queuedID, err := CallAs[string](c, "job.submit", "echo queued")
	if err != nil {
		t.Fatal(err)
	}

	// An in-flight message.wait long-poll that parks on the event bus.
	waitRes := make(chan []any, 1)
	waitErr := make(chan error, 1)
	go func() {
		c2, err := Dial(srv.URL(), WithSession(sess.ID))
		if err != nil {
			waitErr <- err
			return
		}
		defer c2.Close()
		res, err := CallAs[[]any](c2, "message.wait", 0, 8000)
		if err != nil {
			waitErr <- err
			return
		}
		waitRes <- res
	}()
	parkStart := time.Now().Add(10 * time.Second)
	for srv.core.InFlight() < 1 {
		if time.Now().After(parkStart) {
			t.Fatal("message.wait never went in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the long-poll park on the bus

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	drainStart := time.Now().Add(10 * time.Second)
	for !srv.core.Draining() {
		if time.Now().After(drainStart) {
			t.Fatal("server never entered draining mode")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// New work is shed with the one always-retryable fault, so a client
	// that also talks to healthy peers fails over instead of queueing.
	_, pingErr := c.Call("system.ping")
	var fault *rpc.Fault
	if !errors.As(pingErr, &fault) || !rpc.Retryable(fault.Code) {
		t.Fatalf("RPC during drain = %v, want the retryable overload fault", pingErr)
	}

	// The parked long-poll is in-flight work: a message arriving
	// mid-drain must still be delivered to it.
	if _, err := srv.Messages.Send(adminDN, userDN, "drain-wake", "bye"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-waitRes:
		if len(res) == 0 {
			t.Fatal("message.wait returned empty during drain despite a delivered message")
		}
	case err := <-waitErr:
		t.Fatalf("in-flight message.wait failed during drain: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight message.wait never completed during drain")
	}

	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	closed = true

	// The running job finished during the drain; the queued one did not
	// start (its turn never came before the workers stopped).
	if j, ok := srv.Jobs.Get(runID); !ok || j.State != jobsvc.StateDone {
		t.Fatalf("running job after drain = %+v", j)
	}

	// The subscriber observed a closing frame before the transport died.
	sawClosing := false
	for {
		wsConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, data, err := wsConn.ReadMessage()
		if err != nil {
			break
		}
		var f pubsub.Frame
		if json.Unmarshal(data, &f) == nil && f.Op == pubsub.OpClosing {
			sawClosing = true
			break
		}
	}
	if !sawClosing {
		t.Fatal("/ws subscriber never received the closing frame")
	}

	// Durable checkpoint: a new server on the same data directory
	// recovers the queued job and runs it to completion.
	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		j, ok := srv2.Jobs.Get(queuedID)
		if !ok {
			t.Fatalf("queued job %s lost across the restart", queuedID)
		}
		if jobsvc.Terminal(j.State) {
			if j.State != jobsvc.StateDone {
				t.Fatalf("recovered job state = %s", j.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job still %s", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if j, ok := srv2.Jobs.Get(runID); !ok || j.State != jobsvc.StateDone {
		t.Fatalf("drained job lost its terminal state across restart: %+v", j)
	}
}

// TestCloseDuringShutdown is clarens-server's second-signal path: Close
// while Shutdown is still draining a blocked call. Both stop the
// telemetry republisher, which must stop exactly once; under -race
// neither may touch it unguarded.
func TestCloseDuringShutdown(t *testing.T) {
	srv, err := NewServer(Config{Name: "hardstop"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(slowEchoService{delay: 300 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := srv.GrantMethod("slow", []string{EntryAny, EntryAnonymous}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call("slow.echo", "x")
	for srv.Core().InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()
	for !srv.Core().Draining() {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Logf("Close: %v", err)
	}
	<-shutdown
}
