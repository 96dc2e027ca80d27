package clarens

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clarens/internal/jobsvc"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
)

// waitRunning polls the job table until id is running.
func waitRunning(t *testing.T, srv *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if j, ok := srv.Jobs.Get(id); ok && j.State == jobsvc.StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelStopsRunningJob: job.cancel reaches a running attempt. A
// `sleep 30` job reads cancelled within a second, after one attempt, and
// announces exactly one terminal state.
func TestCancelStopsRunningJob(t *testing.T) {
	srv, c := startJobServer(t, jobConfig(t, ""))
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	terminal := srv.Core().Events().Subscribe("shutdown-test", func(ev *pubsub.Event) bool {
		return ev.Type == "job.state" && jobsvc.Terminal(ev.Tags["state"])
	}, 16)
	defer terminal.Cancel()

	id, err := CallAs[string](c, "job.submit", "sleep 30", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, srv, id)
	start := time.Now()
	if ok, err := CallAs[bool](c, "job.cancel", id); err != nil || !ok {
		t.Fatalf("job.cancel = %v, %v", ok, err)
	}
	var j *jobsvc.Job
	for {
		j, _ = srv.Jobs.Get(id)
		if j != nil && j.State == jobsvc.StateCancelled {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("job %+v not cancelled 1 s after job.cancel", j)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if j.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (a cancelled job is not retried)", j.Attempts)
	}

	// Give a second terminal event time to arrive before counting.
	time.Sleep(200 * time.Millisecond)
	n := 0
	for len(terminal.Events()) > 0 {
		if ev := <-terminal.Events(); ev.Tags["job_id"] == id {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d terminal job.state events for %s, want 1", n, id)
	}
}

// TestCloseStopsRunningJob: the hard stop does not wait out a running
// attempt.
func TestCloseStopsRunningJob(t *testing.T) {
	srv, _ := startJobServer(t, jobConfig(t, t.TempDir()))
	j, err := srv.Jobs.Submit(userDN, "sleep 30", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, srv, j.ID)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close with a running sleep 30 took %v", d)
	}
}

// TestShutdownDeadlineStopsRunningJob: an attempt still running when
// Shutdown's context ends is stopped, not abandoned. Its payload never
// reaches its next command, and its record stays running, so recovery
// re-queues it on the next start and counts the interrupted attempt.
func TestShutdownDeadlineStopsRunningJob(t *testing.T) {
	dataDir := t.TempDir()
	cfg := jobConfig(t, dataDir)
	srv, c := startJobServer(t, cfg)
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	id, err := CallAs[string](c, "job.submit", "sleep 1 && touch marker", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, srv, id)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	srv.Shutdown(ctx)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown with a 50 ms context took %v", d)
	}
	marker := filepath.Join(cfg.FileRoot, "sandbox", "joe", "marker")
	for time.Since(start) < 2*time.Second {
		if _, err := os.Stat(marker); err == nil {
			t.Fatal("the interrupted attempt ran on after Shutdown and created its marker")
		}
		time.Sleep(20 * time.Millisecond)
	}

	_, c2 := startJobServer(t, cfg)
	c2.SetSession(sess.ID)
	st := pollStatus(t, c2, id)
	if st["state"] != jobsvc.StateDone {
		t.Fatalf("recovered job = %v", st)
	}
	if a, _ := st["attempts"].(int); a != 2 {
		t.Errorf("attempts = %v, want 2 (interrupted attempt counted)", st["attempts"])
	}
}

// TestShellCmdObeysMethodTimeout: shell.cmd stops its command when the
// method deadline passes and answers with a fault.
func TestShellCmdObeysMethodTimeout(t *testing.T) {
	cfg := fullConfig(t)
	cfg.MethodTimeout = 100 * time.Millisecond
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL(), WithSession(sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = CallAs[map[string]any](c, "shell.cmd", "sleep 30")
	d := time.Since(start)
	var fault *rpc.Fault
	if !errors.As(err, &fault) {
		t.Errorf("shell.cmd past its deadline = %v, want a fault", err)
	}
	if d > time.Second {
		t.Fatalf("shell.cmd \"sleep 30\" under a 100 ms deadline took %v", d)
	}
}
