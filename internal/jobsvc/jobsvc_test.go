package jobsvc

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clarens/internal/core"
	"clarens/internal/pki"
)

var (
	alice = pki.MustParseDN("/O=grid/OU=People/CN=Alice")
	bob   = pki.MustParseDN("/O=grid/OU=People/CN=Bob")
)

func testServer(t *testing.T, dir string) *core.Server {
	t.Helper()
	srv, err := core.NewServer(core.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// echoExec is a fake executor: "echo X" succeeds with X on stdout,
// "fail" exits 1, "error" cannot run at all.
func echoExec(owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
	switch {
	case strings.HasPrefix(command, "echo "):
		io.WriteString(stdout, strings.TrimPrefix(command, "echo ")+"\n")
		return ExecStatus{LocalUser: "fake"}, nil
	case command == "fail":
		io.WriteString(stderr, "boom\n")
		return ExecStatus{ExitCode: 1, LocalUser: "fake"}, nil
	case command == "error":
		return ExecStatus{}, fmt.Errorf("executor unavailable")
	}
	return ExecStatus{LocalUser: "fake"}, nil
}

func newService(t *testing.T, srv *core.Server, cfg Config, exec Executor) *Service {
	t.Helper()
	s, err := New(srv, cfg, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestSubmitRunsToDone(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{Workers: 2}, echoExec)
	j, err := s.Submit(alice, "echo hello", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Stdout != "hello\n" || got.ExitCode != 0 {
		t.Errorf("job = %+v", got)
	}
	if got.Attempts != 1 || got.LocalUser != "fake" {
		t.Errorf("attempts=%d local_user=%q", got.Attempts, got.LocalUser)
	}
	if got.Started.IsZero() || got.Finished.IsZero() {
		t.Error("missing timestamps")
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{}, echoExec)
	if _, err := s.Submit(pki.DN{}, "echo x", 0, 0); err == nil {
		t.Error("anonymous submit must fail")
	}
	if _, err := s.Submit(alice, "", 0, 0); err == nil {
		t.Error("empty command must fail")
	}
	// Retries are clamped to the limit.
	j, err := s.Submit(alice, "echo x", 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if j.MaxRetries != 3 {
		t.Errorf("MaxRetries = %d, want clamped to 3", j.MaxRetries)
	}
}

// gateExec blocks every attempt until released, recording start order.
type gateExec struct {
	mu      sync.Mutex
	started []string
	gate    chan struct{}
}

func (g *gateExec) exec(owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
	g.mu.Lock()
	g.started = append(g.started, command)
	g.mu.Unlock()
	<-g.gate
	io.WriteString(stdout, command)
	return ExecStatus{}, nil
}

func (g *gateExec) order() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.started...)
}

func TestPriorityOrdering(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)

	// Occupy the single worker so subsequent jobs queue up.
	hold, err := s.Submit(alice, "hold", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })

	// Queue low before high; the scheduler must pick high first.
	if _, err := s.Submit(alice, "low", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(alice, "high", 9, 0); err != nil {
		t.Fatal(err)
	}
	close(g.gate)
	if _, err := s.Wait(hold.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 3 })
	order := g.order()
	if order[1] != "high" || order[2] != "low" {
		t.Errorf("start order = %v, want hold,high,low", order)
	}
}

func TestFairShareQuota(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 2, MaxPerOwner: 1}, g.exec)

	// Alice saturates her quota; her second job must wait even though a
	// worker is free, so Bob's later submission starts ahead of it.
	if _, err := s.Submit(alice, "alice-1", 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	if _, err := s.Submit(alice, "alice-2", 0, 0); err != nil {
		t.Fatal(err)
	}
	bj, err := s.Submit(bob, "bob-1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 2 })
	if order := g.order(); order[1] != "bob-1" {
		t.Errorf("second start = %q, want bob-1 (alice over quota)", order[1])
	}
	close(g.gate)
	if _, err := s.Wait(bj.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Quota freed: alice-2 runs now.
	waitFor(t, func() bool { return len(g.order()) == 3 })
}

func TestRetriesThenFailure(t *testing.T) {
	srv := testServer(t, "")
	var attempts atomic.Int32
	exec := func(owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
		attempts.Add(1)
		io.WriteString(stderr, "always fails\n")
		return ExecStatus{ExitCode: 1}, nil
	}
	s := newService(t, srv, Config{Workers: 1}, exec)
	j, err := s.Submit(alice, "doomed", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Attempts != 3 || attempts.Load() != 3 {
		t.Errorf("state=%s attempts=%d executed=%d, want failed after 3", got.State, got.Attempts, attempts.Load())
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	srv := testServer(t, "")
	var attempts atomic.Int32
	exec := func(owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
		if attempts.Add(1) == 1 {
			return ExecStatus{ExitCode: 1}, nil
		}
		io.WriteString(stdout, "recovered\n")
		return ExecStatus{}, nil
	}
	s := newService(t, srv, Config{Workers: 1}, exec)
	j, err := s.Submit(alice, "flaky", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Attempts != 2 || got.Stdout != "recovered\n" {
		t.Errorf("job = %+v", got)
	}
}

func TestExecutorErrorCountsAsFailure(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{Workers: 1}, echoExec)
	j, err := s.Submit(alice, "error", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == "" || got.ExitCode != -1 {
		t.Errorf("job = %+v", got)
	}
}

func TestCancelQueued(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	defer close(g.gate)
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	if _, err := s.Submit(alice, "hold", 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	j, err := s.Submit(alice, "victim", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := s.Cancel(j.ID)
	if err != nil || !changed {
		t.Fatalf("cancel = %v, %v", changed, err)
	}
	got, _ := s.Get(j.ID)
	if got.State != StateCancelled {
		t.Errorf("state = %s", got.State)
	}
	// The heap entry is removed eagerly: the cancelled job no longer
	// occupies queue capacity.
	if sn := s.Stats(); sn.Queued != 0 {
		t.Errorf("queued = %d after cancel, want 0", sn.Queued)
	}
	// Cancelling a terminal job is a no-op.
	if changed, _ := s.Cancel(j.ID); changed {
		t.Error("cancel of cancelled job must report false")
	}
}

func TestCancelRunning(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	j, err := s.Submit(alice, "long", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	changed, err := s.Cancel(j.ID)
	if err != nil || !changed {
		t.Fatalf("cancel = %v, %v", changed, err)
	}
	close(g.gate)
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The cancel request wins over success and retries.
	if got.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", got.State)
	}
}

func TestListAndStats(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{Workers: 2}, echoExec)
	var last *Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(alice, fmt.Sprintf("echo %d", i), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	if _, err := s.Submit(bob, "echo bob", 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		sn := s.Stats()
		return sn.Done == 4
	})
	mine, err := s.List(alice.String(), "")
	if err != nil || len(mine) != 3 {
		t.Fatalf("alice sees %d jobs (%v), want 3", len(mine), err)
	}
	// Submission order is preserved by the key layout.
	if mine[2].ID != last.ID {
		t.Errorf("list order: last = %s, want %s", mine[2].ID, last.ID)
	}
	all, _ := s.List("", "")
	if len(all) != 4 {
		t.Errorf("all = %d jobs, want 4", len(all))
	}
	done, _ := s.List("", StateDone)
	if len(done) != 4 {
		t.Errorf("done = %d jobs, want 4", len(done))
	}
	sn := s.Stats()
	if sn.Queued != 0 || sn.Running != 0 || sn.Done != 4 || sn.Workers != 2 {
		t.Errorf("stats = %+v", sn)
	}
	if sn.Throughput() <= 0 {
		t.Error("throughput must be positive after completions")
	}
}

func TestQueueFull(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	defer close(g.gate)
	s := newService(t, srv, Config{Workers: 1, MaxQueue: 2}, g.exec)
	if _, err := s.Submit(alice, "hold", 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(alice, "queued", 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(alice, "overflow", 0, 0); err == nil {
		t.Error("submit past MaxQueue must fail")
	}
}

// TestCrashRecovery simulates a crash: job records are persisted
// (queued + running) and a fresh server is rebuilt on the same database
// directory. Interrupted jobs must be re-queued while retry budget
// remains, or marked failed when it is exhausted.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()

	// Server #1: persist a mixed job table, then "crash" (close without
	// draining — records stay in their last persisted state).
	srv1, err := core.NewServer(core.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	mk := func(id, state string, attempts, maxRetries int) *Job {
		return &Job{
			ID: id, Owner: alice.String(), Command: "echo recovered",
			State: state, Attempts: attempts, MaxRetries: maxRetries,
			Submitted: now,
		}
	}
	queued := mk(mustID(t, now), StateQueued, 0, 0)
	interrupted := mk(mustID(t, now.Add(time.Millisecond)), StateRunning, 1, 2)
	exhausted := mk(mustID(t, now.Add(2*time.Millisecond)), StateRunning, 3, 2)
	finished := mk(mustID(t, now.Add(3*time.Millisecond)), StateDone, 1, 0)
	finished.Stdout = "earlier result\n"
	for _, j := range []*Job{queued, interrupted, exhausted, finished} {
		if err := srv1.Store().PutJSON(bucket, j.ID, j); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Server #2 on the same directory: recovery and execution.
	srv2 := testServer(t, dir)
	s := newService(t, srv2, Config{Workers: 2}, echoExec)

	for _, id := range []string{queued.ID, interrupted.ID} {
		got, err := s.Wait(id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone || got.Stdout != "recovered\n" {
			t.Errorf("job %s after recovery = %s %q", id, got.State, got.Stdout)
		}
	}
	// The interrupted attempt already counted, so the retry ran as attempt 2.
	if got, _ := s.Get(interrupted.ID); got.Attempts != 2 {
		t.Errorf("interrupted attempts = %d, want 2", got.Attempts)
	}
	if got, _ := s.Get(exhausted.ID); got.State != StateFailed || !strings.Contains(got.Error, "restart") {
		t.Errorf("exhausted job = %+v, want failed with restart error", got)
	}
	if got, _ := s.Get(finished.ID); got.State != StateDone || got.Stdout != "earlier result\n" {
		t.Errorf("terminal job must be untouched, got %+v", got)
	}
}

// TestRecoveryNotifiesTerminalTransitions: a job moved to failed during
// crash recovery must announce itself like any other terminal transition,
// or notification-driven clients wait forever.
func TestRecoveryNotifiesTerminalTransitions(t *testing.T) {
	dir := t.TempDir()
	srv1, err := core.NewServer(core.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	dead := &Job{
		ID: mustID(t, time.Now()), Owner: alice.String(), Command: "echo lost",
		State: StateRunning, Attempts: 4, MaxRetries: 3, Submitted: time.Now(),
	}
	if err := srv1.Store().PutJSON(bucket, dead.ID, dead); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2 := testServer(t, dir)
	rec := &notifyRecorder{}
	s, err := New(srv2, Config{Workers: 1}, echoExec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sent) != 1 || rec.sent[0] != "job.failed" {
		t.Errorf("recovery notifications = %v, want [job.failed]", rec.sent)
	}
	if sn := s.Stats(); sn.Failed != 1 {
		t.Errorf("failed counter = %d, want 1", sn.Failed)
	}
}

func mustID(t *testing.T, at time.Time) string {
	t.Helper()
	id, err := newID(at)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// notifyRecorder captures terminal notifications.
type notifyRecorder struct {
	mu   sync.Mutex
	sent []string // subjects
}

func (n *notifyRecorder) Send(from, to pki.DN, subject, body string) (string, error) {
	n.mu.Lock()
	n.sent = append(n.sent, subject)
	n.mu.Unlock()
	return "id", nil
}

func TestTerminalNotifications(t *testing.T) {
	srv := testServer(t, "")
	rec := &notifyRecorder{}
	s, err := New(srv, Config{Workers: 1}, echoExec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ok, _ := s.Submit(alice, "echo fine", 0, 0)
	bad, _ := s.Submit(alice, "fail", 0, 0)
	s.Wait(ok.ID, 5*time.Second)
	s.Wait(bad.ID, 5*time.Second)
	waitFor(t, func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.sent) == 2
	})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.sent[0] != "job.done" || rec.sent[1] != "job.failed" {
		t.Errorf("notifications = %v", rec.sent)
	}
}

// The scheduler's gauges live on the telemetry registry it is handed —
// the one feed /metrics and PublishTelemetry read.
func TestRegistryGauges(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{Workers: 1, Telemetry: srv.Telemetry()}, echoExec)
	j, _ := s.Submit(alice, "echo gauge", 0, 0)
	s.Wait(j.ID, 5*time.Second)
	waitFor(t, func() bool { return srv.Telemetry().GaugeValues()["clarens.job.done"] == 1 })
	g := srv.Telemetry().GaugeValues()
	if g["clarens.job.workers"] != 1 || g["clarens.job.throughput"] <= 0 || g["clarens.job.queued"] != 0 {
		t.Errorf("gauges = %v", g)
	}
	for _, name := range []string{"running", "remote", "failed", "cancelled", "artifact_bytes", "artifact_gc"} {
		if v, ok := g["clarens.job."+name]; !ok || v != 0 {
			t.Errorf("clarens.job.%s = %v (registered: %v), want 0", name, v, ok)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPriorityAgingPromotesStarvedJobs(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1, AgeInterval: 10 * time.Millisecond, AgeStep: 2}, g.exec)

	// Occupy the worker, then queue a low-priority job well before a
	// higher-priority one. Under strict priority "high" always wins; with
	// aging the old low-priority job has accrued enough effective
	// priority to start first.
	hold, err := s.Submit(alice, "hold", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	if _, err := s.Submit(alice, "old-low", 0, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // ~12 intervals: +24 effective
	if _, err := s.Submit(alice, "young-high", 10, 0); err != nil {
		t.Fatal(err)
	}
	// Let the ager observe the gap before releasing the worker.
	time.Sleep(30 * time.Millisecond)
	close(g.gate)
	if _, err := s.Wait(hold.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 3 })
	if order := g.order(); order[1] != "old-low" {
		t.Errorf("start order = %v, want the aged job ahead of young-high", order)
	}
}

func TestNoAgingKeepsStrictPriority(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec) // AgeInterval 0: strict

	hold, _ := s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	s.Submit(alice, "old-low", 0, 0)
	time.Sleep(50 * time.Millisecond)
	s.Submit(alice, "young-high", 10, 0)
	close(g.gate)
	s.Wait(hold.ID, 5*time.Second)
	waitFor(t, func() bool { return len(g.order()) == 3 })
	if order := g.order(); order[1] != "young-high" {
		t.Errorf("start order = %v, want strict priority without aging", order)
	}
}

func TestPerOwnerQueueQuota(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1, MaxQueuedPerOwner: 2}, g.exec)

	hold, _ := s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	// Alice may queue two more; the third is refused by her quota...
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(alice, fmt.Sprintf("echo a%d", i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(alice, "echo a-over", 0, 0); err == nil {
		t.Fatal("alice over queued quota must be refused")
	} else if !strings.Contains(err.Error(), "owner queue quota") {
		t.Errorf("err = %v", err)
	}
	// ...while the queue stays open for bob.
	bj, err := s.Submit(bob, "echo b0", 0, 0)
	if err != nil {
		t.Fatalf("bob must not be wedged by alice's quota: %v", err)
	}
	close(g.gate)
	if _, err := s.Wait(bj.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Wait(hold.ID, 5*time.Second)
	// Drained: alice's quota freed.
	waitFor(t, func() bool { return s.Stats().Queued == 0 })
	if _, err := s.Submit(alice, "echo again", 0, 0); err != nil {
		t.Errorf("quota must free as jobs drain: %v", err)
	}
}

func TestClaimForwardTakesBackOfQueue(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	defer close(g.gate)

	hold, _ := s.Submit(alice, "hold", 0, 0)
	_ = hold
	waitFor(t, func() bool { return len(g.order()) == 1 })
	jHigh, _ := s.Submit(alice, "echo high", 9, 0)
	jLow, _ := s.Submit(alice, "echo low", 1, 0)

	claimed := s.ClaimForward(1, "peer-x")
	if len(claimed) != 1 || claimed[0].ID != jLow.ID {
		t.Fatalf("claimed = %+v, want the low-priority job (farthest from running)", claimed)
	}
	if claimed[0].State != StateRemote || claimed[0].Peer != "peer-x" {
		t.Errorf("claimed job = %+v", claimed[0])
	}
	if sn := s.Stats(); sn.Queued != 1 || sn.Remote != 1 {
		t.Errorf("stats = %+v", sn)
	}
	// The binding round trip.
	if err := s.MarkForwarded(jLow.ID, "http://peer-x/rpc", "rid-1", "tok"); err != nil {
		t.Fatal(err)
	}
	remote := s.RemoteJobs()
	if len(remote) != 1 || remote[0].RemoteID != "rid-1" || remote[0].PeerSession != "tok" {
		t.Fatalf("remote = %+v", remote)
	}
	// Pull the result back; counters and record finalize.
	if err := s.CompleteRemote(jLow.ID, StateDone, ExecResult{Stdout: "from-peer", ExitCode: 0, LocalUser: "joe"}, ""); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get(jLow.ID)
	if j.State != StateDone || j.Stdout != "from-peer" || j.LocalUser != "joe" {
		t.Errorf("finalized = %+v", j)
	}
	if sn := s.Stats(); sn.Remote != 0 || sn.Done != 1 {
		t.Errorf("stats = %+v", sn)
	}
	_ = jHigh
}

func TestRequeueLocalFallsBackAndHonorsCancel(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)

	hold, _ := s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	j1, _ := s.Submit(alice, "echo fallback", 0, 0)
	j2, _ := s.Submit(alice, "echo cancelme", 0, 0)
	claimed := s.ClaimForward(2, "peer-x")
	if len(claimed) != 2 {
		t.Fatalf("claimed = %+v", claimed)
	}
	// A cancel requested while remote is honored at requeue time.
	if ok, err := s.Cancel(j2.ID); err != nil || !ok {
		t.Fatalf("cancel remote: %v %v", ok, err)
	}
	if err := s.RequeueLocal(j1.ID, "peer died"); err != nil {
		t.Fatal(err)
	}
	if err := s.RequeueLocal(j2.ID, "peer died"); err != nil {
		t.Fatal(err)
	}
	jc, _ := s.Get(j2.ID)
	if jc.State != StateCancelled {
		t.Errorf("cancelled-while-remote job = %+v", jc)
	}
	close(g.gate)
	got, err := s.Wait(j1.ID, 5*time.Second)
	if err != nil || got.State != StateDone {
		t.Fatalf("fallback job = %+v, %v", got, err)
	}
	if got.Peer != "" || got.RemoteID != "" || got.PeerSession != "" {
		t.Errorf("fallback job kept remote binding: %+v", got)
	}
	s.Wait(hold.ID, 5*time.Second)
}

func TestRequeueAllRemote(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	hold, _ := s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	s.Submit(alice, "echo r1", 0, 0)
	s.Submit(alice, "echo r2", 0, 0)
	if n := len(s.ClaimForward(2, "peer")); n != 2 {
		t.Fatalf("claimed %d", n)
	}
	if n := s.RequeueAllRemote(); n != 2 {
		t.Fatalf("requeued %d, want 2", n)
	}
	if sn := s.Stats(); sn.Remote != 0 || sn.Queued != 2 {
		t.Errorf("stats = %+v", sn)
	}
	close(g.gate)
	s.Wait(hold.ID, 5*time.Second)
}

// dirStager is a minimal ArtifactStager over a temp directory, standing
// in for fileservice.ArtifactStore in unit tests.
type dirStager struct {
	root    string
	mu      sync.Mutex
	created map[string]string // jobID -> owner DN
	removed []string
}

func newDirStager(t *testing.T) *dirStager {
	return &dirStager{root: t.TempDir(), created: make(map[string]string)}
}

func (d *dirStager) Create(jobID string, owner pki.DN) (string, string, error) {
	if strings.ContainsAny(jobID, "/\\") {
		return "", "", fmt.Errorf("bad id")
	}
	dir := d.root + "/" + jobID
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	d.mu.Lock()
	d.created[jobID] = owner.String()
	d.mu.Unlock()
	return dir, "/jobs/" + jobID, nil
}

func (d *dirStager) Remove(jobID string) error {
	d.mu.Lock()
	d.removed = append(d.removed, jobID)
	d.mu.Unlock()
	return os.RemoveAll(d.root + "/" + jobID)
}

func (d *dirStager) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.Name())
	}
	return ids, nil
}

func (d *dirStager) ownerOf(jobID string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.created[jobID]
}

// bulkExec emits n bytes of patterned stdout.
func bulkExec(n int) Executor {
	return func(owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
		chunk := make([]byte, 8192)
		for i := range chunk {
			chunk[i] = byte('a' + i%26)
		}
		for written := 0; written < n; {
			c := chunk
			if n-written < len(c) {
				c = c[:n-written]
			}
			stdout.Write(c)
			written += len(c)
		}
		io.WriteString(stderr, "small stderr\n")
		return ExecStatus{LocalUser: "fake"}, nil
	}
}

// TestArtifactStagingLargeOutput: output past OutputLimit keeps a clean
// head inline, sets truncated, and references a staged artifact holding
// the full stream.
func TestArtifactStagingLargeOutput(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	const total = 200_000
	s := newService(t, srv, Config{Workers: 1, OutputLimit: 1024, Artifacts: stager}, bulkExec(total))
	j, err := s.Submit(alice, "bulk", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !got.Truncated {
		t.Fatalf("job = state %s truncated %v", got.State, got.Truncated)
	}
	if len(got.Stdout) != 1024 {
		t.Errorf("head = %d bytes, want 1024", len(got.Stdout))
	}
	if len(got.Artifacts) != 1 || got.Artifacts[0].Name != "stdout" {
		t.Fatalf("artifacts = %+v (stderr fit inline, must not be staged)", got.Artifacts)
	}
	if got.Artifacts[0].Partial {
		t.Error("fully spooled artifact wrongly marked Partial")
	}
	a := got.Artifacts[0]
	if a.Size != total || a.Path != "/jobs/"+j.ID+"/stdout" || a.MD5 == "" {
		t.Errorf("artifact = %+v", a)
	}
	data, err := os.ReadFile(stager.root + "/" + j.ID + "/stdout")
	if err != nil || int64(len(data)) != total {
		t.Fatalf("staged file = %d bytes, %v", len(data), err)
	}
	if !strings.HasPrefix(string(data), got.Stdout) {
		t.Error("inline head is not a prefix of the staged stream")
	}
	if stager.ownerOf(j.ID) != alice.String() {
		t.Errorf("tree scoped to %q, want alice", stager.ownerOf(j.ID))
	}
	if sn := s.Stats(); sn.ArtifactBytes < total {
		t.Errorf("ArtifactBytes = %d, want >= %d", sn.ArtifactBytes, total)
	}
	// stderr fit inline: its spool file must be gone.
	if _, err := os.ReadFile(stager.root + "/" + j.ID + "/stderr"); err == nil {
		t.Error("small stderr stream must not leave a spool file")
	}
}

// TestSmallOutputStaysInline: outputs under the limit keep the old
// inline contract and leave no artifact tree behind.
func TestSmallOutputStaysInline(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	s := newService(t, srv, Config{Workers: 1, Artifacts: stager}, echoExec)
	j, _ := s.Submit(alice, "echo tiny", 0, 0)
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated || len(got.Artifacts) != 0 || got.Stdout != "tiny\n" {
		t.Errorf("job = %+v", got)
	}
	if ids, _ := stager.List(); len(ids) != 0 {
		t.Errorf("empty tree left behind: %v", ids)
	}
}

// TestSpoolLimitCapsArtifact: the on-disk spool is capped at SpoolLimit
// while the byte count keeps the head/truncation bookkeeping honest.
func TestSpoolLimitCapsArtifact(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	s := newService(t, srv, Config{Workers: 1, OutputLimit: 512, SpoolLimit: 4096, Artifacts: stager}, bulkExec(100_000))
	j, _ := s.Submit(alice, "bulk", 0, 0)
	got, err := s.Wait(j.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Artifacts) != 1 || got.Artifacts[0].Size != 4096 {
		t.Fatalf("artifacts = %+v, want stdout capped at 4096", got.Artifacts)
	}
	if !got.Artifacts[0].Partial {
		t.Error("a spool-capped artifact must be marked Partial")
	}
	data, _ := os.ReadFile(stager.root + "/" + j.ID + "/stdout")
	if len(data) != 4096 {
		t.Errorf("spool = %d bytes", len(data))
	}
}

// TestDeleteRemovesArtifacts: job.delete's backing method clears record
// and tree; non-terminal jobs are refused.
func TestDeleteRemovesArtifacts(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	s := newService(t, srv, Config{Workers: 1, OutputLimit: 64, Artifacts: stager}, bulkExec(10_000))
	j, _ := s.Submit(alice, "bulk", 0, 0)
	if _, err := s.Wait(j.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(j.ID); ok {
		t.Error("record survived delete")
	}
	if ids, _ := stager.List(); len(ids) != 0 {
		t.Errorf("tree survived delete: %v", ids)
	}
	if sn := s.Stats(); sn.ArtifactGC != 1 {
		t.Errorf("ArtifactGC = %d, want 1", sn.ArtifactGC)
	}
	// Non-terminal jobs are refused.
	g := &gateExec{gate: make(chan struct{})}
	defer close(g.gate)
	s2 := newService(t, srv, Config{Workers: 1}, g.exec)
	running, _ := s2.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	if err := s2.Delete(running.ID); err == nil {
		t.Error("delete of a running job must be refused")
	}
}

// TestRetentionSweep: terminal jobs' trees are collected after the
// retention window; records keep their heads but drop the references.
func TestRetentionSweep(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	s := newService(t, srv, Config{Workers: 1, OutputLimit: 64, Artifacts: stager, ArtifactRetention: time.Hour}, bulkExec(10_000))
	j, _ := s.Submit(alice, "bulk", 0, 0)
	if _, err := s.Wait(j.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A sweep "now" keeps the fresh tree; a sweep from the far future
	// collects it.
	s.gcExpiredArtifacts(time.Now())
	if got, _ := s.Get(j.ID); len(got.Artifacts) != 1 {
		t.Fatalf("fresh artifacts swept: %+v", got.Artifacts)
	}
	s.gcExpiredArtifacts(time.Now().Add(2 * time.Hour))
	got, _ := s.Get(j.ID)
	if len(got.Artifacts) != 0 || !got.Truncated || got.Stdout == "" {
		t.Errorf("after sweep: %+v", got)
	}
	if ids, _ := stager.List(); len(ids) != 0 {
		t.Errorf("tree survived sweep: %v", ids)
	}
	if sn := s.Stats(); sn.ArtifactGC != 1 {
		t.Errorf("ArtifactGC = %d", sn.ArtifactGC)
	}
}

// TestOrphanSweepAtStartup: artifact trees with no job record are
// removed when the scheduler rebuilds.
func TestOrphanSweepAtStartup(t *testing.T) {
	dir := t.TempDir()
	stager := newDirStager(t)
	if _, _, err := stager.Create("00000000000000000001-dead", alice); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, dir)
	s := newService(t, srv, Config{Workers: 1, Artifacts: stager}, echoExec)
	if ids, _ := stager.List(); len(ids) != 0 {
		t.Errorf("orphan tree survived recovery: %v", ids)
	}
	if sn := s.Stats(); sn.ArtifactGC != 1 {
		t.Errorf("ArtifactGC = %d", sn.ArtifactGC)
	}
}

// TestStageRemoteArtifact: the federation pull-back path re-stages peer
// content into the local tree for a remote shadow record.
func TestStageRemoteArtifact(t *testing.T) {
	srv := testServer(t, "")
	stager := newDirStager(t)
	g := &gateExec{gate: make(chan struct{})}
	defer close(g.gate)
	s := newService(t, srv, Config{Workers: 1, Artifacts: stager}, g.exec)
	s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	j, _ := s.Submit(alice, "echo remote", 0, 0)
	if n := len(s.ClaimForward(1, "peer")); n != 1 {
		t.Fatalf("claimed %d", n)
	}
	content := strings.Repeat("remote-bytes.", 1000)
	a, err := s.StageRemoteArtifact(j.ID, "stdout", strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != int64(len(content)) || a.Path != "/jobs/"+j.ID+"/stdout" {
		t.Errorf("artifact = %+v", a)
	}
	data, err := os.ReadFile(stager.root + "/" + j.ID + "/stdout")
	if err != nil || string(data) != content {
		t.Errorf("staged content mismatch (%d bytes, %v)", len(data), err)
	}
	if stager.ownerOf(j.ID) != alice.String() {
		t.Errorf("remote stage scoped to %q", stager.ownerOf(j.ID))
	}
	// Hostile names refused; non-remote jobs refused.
	for _, evil := range []string{"", "..", "a/b", `a\b`} {
		if _, err := s.StageRemoteArtifact(j.ID, evil, strings.NewReader("x")); err == nil {
			t.Errorf("name %q must be refused", evil)
		}
	}
	if err := s.CompleteRemote(j.ID, StateDone, ExecResult{Stdout: "head", Truncated: true, Artifacts: []Artifact{a}}, ""); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(j.ID)
	if !got.Truncated || len(got.Artifacts) != 1 || got.Artifacts[0].MD5 != a.MD5 {
		t.Errorf("finalized shadow = %+v", got)
	}
	if _, err := s.StageRemoteArtifact(j.ID, "late", strings.NewReader("x")); err == nil {
		t.Error("staging into a terminal job must be refused")
	}
}

func TestCompleteRemoteHonorsCancelFlag(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	defer close(g.gate)

	s.Submit(alice, "hold", 0, 0)
	waitFor(t, func() bool { return len(g.order()) == 1 })
	j, _ := s.Submit(alice, "echo remote", 0, 0)
	if n := len(s.ClaimForward(1, "peer")); n != 1 {
		t.Fatalf("claimed %d", n)
	}
	if err := s.MarkForwarded(j.ID, "http://peer/rpc", "rid", "tok"); err != nil {
		t.Fatal(err)
	}
	// Cancel acknowledged while remote; the peer races it to completion.
	if ok, err := s.Cancel(j.ID); err != nil || !ok {
		t.Fatalf("cancel = %v, %v", ok, err)
	}
	if err := s.CompleteRemote(j.ID, StateDone, ExecResult{Stdout: "too late"}, ""); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(j.ID)
	if got.State != StateCancelled {
		t.Errorf("state = %s, want cancelled (acknowledged cancel must win)", got.State)
	}
	if sn := s.Stats(); sn.Cancelled != 1 || sn.Done != 0 {
		t.Errorf("stats = %+v", sn)
	}
}
