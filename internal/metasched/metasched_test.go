package metasched

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clarens/internal/core"
	"clarens/internal/discovery"
	"clarens/internal/jobsvc"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/resilience"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

var ownerDN = pki.MustParseDN("/O=grid/OU=People/CN=Fed User")

// fakeConn scripts a peer: handle receives every call (batched or not).
type fakeConn struct {
	mu     sync.Mutex
	handle func(token, method string, params []any) (any, error)
	calls  []string
	closed bool
	// fail answers a method with a fixed error instead of handle;
	// "system.multicall" fails a whole Batch.
	fail map[string]error
}

func (c *fakeConn) Call(token, trace, method string, params ...any) (any, error) {
	c.mu.Lock()
	c.calls = append(c.calls, method)
	h, err := c.handle, c.fail[method]
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return h(token, method, params)
}

func (c *fakeConn) Batch(token string, calls []Call) ([]Result, error) {
	c.mu.Lock()
	c.calls = append(c.calls, "system.multicall")
	err := c.fail["system.multicall"]
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(calls))
	for i, cl := range calls {
		v, err := c.Call(token, cl.Trace, cl.Method, cl.Params...)
		if err != nil {
			var f *rpc.Fault
			if !errors.As(err, &f) {
				return nil, err // transport failure aborts the batch
			}
		}
		out[i] = Result{Value: v, Err: err}
	}
	return out, nil
}

func (c *fakeConn) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

func (c *fakeConn) failWith(method string, err error) {
	c.mu.Lock()
	c.fail = map[string]error{method: err}
	c.mu.Unlock()
}

func (c *fakeConn) callCount(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.calls {
		if m == method {
			n++
		}
	}
	return n
}

// fakePeers serves a static peer table.
type fakePeers struct {
	mu      sync.Mutex
	entries []discovery.Entry
}

func (f *fakePeers) PeersFor(service, exclude string) []discovery.Entry {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []discovery.Entry
	for _, e := range f.entries {
		if e.Service == service && e.Server != exclude {
			out = append(out, e)
		}
	}
	return out
}

// fakeDeleg mints predictable secrets.
type fakeDeleg struct {
	mu     sync.Mutex
	issued []string
	err    error
}

func (f *fakeDeleg) IssueDelegation(dn pki.DN, ttl time.Duration) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return "", f.err
	}
	s := fmt.Sprintf("secret-%d", len(f.issued))
	f.issued = append(f.issued, s)
	return s, nil
}

// harness bundles a local jobsvc (1 worker, gated executor) and a
// scheduler wired to fakes.
type harness struct {
	jobs    *jobsvc.Service
	sched   *Scheduler
	peers   *fakePeers
	deleg   *fakeDeleg
	conns   map[string]*fakeConn
	gate    chan struct{} // each receive lets one local execution finish
	mu      sync.Mutex
	ranHere []string       // commands executed locally
	dials   map[string]int // endpoint URL -> dials so far
}

func newHarness(t *testing.T, cfg Config, dialErr map[string]error) *harness {
	return newHarnessJobs(t, cfg, jobsvc.Config{Workers: 1}, dialErr)
}

func newHarnessJobs(t *testing.T, cfg Config, jcfg jobsvc.Config, dialErr map[string]error) *harness {
	t.Helper()
	srv, err := core.NewServer(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := &harness{
		peers: &fakePeers{},
		deleg: &fakeDeleg{},
		conns: map[string]*fakeConn{},
		gate:  make(chan struct{}, 1024),
		dials: map[string]int{},
	}
	exec := func(ctx context.Context, owner pki.DN, command string, stdout, stderr io.Writer) (jobsvc.ExecStatus, error) {
		select {
		case <-h.gate:
		case <-ctx.Done():
		}
		h.mu.Lock()
		h.ranHere = append(h.ranHere, command)
		h.mu.Unlock()
		io.WriteString(stdout, "local:"+command)
		return jobsvc.ExecStatus{}, nil
	}
	h.jobs, err = jobsvc.New(srv, jcfg, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.HardStop(h.jobs.Drain) })
	dial := func(url string) (Conn, error) {
		h.mu.Lock()
		h.dials[url]++
		h.mu.Unlock()
		if err := dialErr[url]; err != nil {
			return nil, err
		}
		c, ok := h.conns[url]
		if !ok {
			return nil, fmt.Errorf("dial %s: connection refused", url)
		}
		return c, nil
	}
	if cfg.ServerName == "" {
		cfg.ServerName = "local"
	}
	if cfg.SelfURL == nil {
		cfg.SelfURL = func() string { return "http://local/rpc" }
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour // tests drive cycles via Kick
	}
	h.sched, err = New(h.jobs, h.peers, h.deleg, dial, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.sched.Stop)
	return h
}

func (h *harness) dialCount(url string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials[url]
}

// fakeEvents scripts a peer's push plane: every dial opens a stream the
// test feeds and ends.
type fakeEvents struct {
	mu      sync.Mutex
	streams []*fakeStream
}

func (f *fakeEvents) dial(url, token, query string) (EventStream, error) {
	st := &fakeStream{ch: make(chan pubsub.Event, 8)}
	f.mu.Lock()
	f.streams = append(f.streams, st)
	f.mu.Unlock()
	return st, nil
}

func (f *fakeEvents) dialed() []*fakeStream {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fakeStream(nil), f.streams...)
}

type fakeStream struct {
	ch   chan pubsub.Event
	once sync.Once
}

func (s *fakeStream) Events() <-chan pubsub.Event { return s.ch }

func (s *fakeStream) Close() error {
	s.once.Do(func() { close(s.ch) })
	return nil
}

func (h *harness) addPeer(name, url string, free int) *fakeConn {
	// A scripted healthy peer: idle workers, accepts submissions, reports
	// submitted jobs as done with canned output.
	type remoteJob struct{ id, command string }
	var mu sync.Mutex
	var accepted []remoteJob
	conn := &fakeConn{}
	conn.handle = func(token, method string, params []any) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		switch method {
		case "job.stats":
			return map[string]any{"queued": 0, "running": 0, "workers": free}, nil
		case "proxy.login_delegated":
			return "sess-" + name, nil
		case "job.submit":
			if token == "" {
				return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "authentication required"}
			}
			id := fmt.Sprintf("%s-job-%d", name, len(accepted))
			accepted = append(accepted, remoteJob{id: id, command: params[0].(string)})
			return id, nil
		case "job.status":
			return map[string]any{"state": "done", "attempts": 1, "local_user": "joe"}, nil
		case "job.output":
			return map[string]any{"stdout": "remote:" + name, "stderr": "", "exit_code": 0}, nil
		case "job.cancel":
			return true, nil
		}
		return nil, &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: method}
	}
	h.conns[url] = conn
	h.peers.mu.Lock()
	h.peers.entries = append(h.peers.entries, discovery.Entry{
		Server: name, Service: "job", URL: url, Expires: time.Now().Add(time.Minute),
	})
	h.peers.mu.Unlock()
	return conn
}

func (h *harness) submit(t *testing.T, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		j, err := h.jobs.Submit(ownerDN, fmt.Sprintf("echo %d", i), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	return ids
}

func waitRunning(t *testing.T, jobs *jobsvc.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if jobs.Stats().Running == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("running = %d, want %d", jobs.Stats().Running, n)
}

// occupy parks the single local worker on a blocker job so subsequently
// submitted work stays deterministically queued.
func (h *harness) occupy(t *testing.T) {
	t.Helper()
	if _, err := h.jobs.Submit(ownerDN, "blocker", 100, 0); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, h.jobs, 1)
}

func waitState(t *testing.T, jobs *jobsvc.Service, id, state string) *jobsvc.Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := jobs.Get(id); ok && j.State == state {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := jobs.Get(id)
	t.Fatalf("job %s = %+v, want state %s", id, j, state)
	return nil
}

func TestForwardDelegatePullBack(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	ids := h.submit(t, 4) // worker takes 1 (gated), 3 stay queued
	waitRunning(t, h.jobs, 1)

	h.sched.Kick() // discover, poll, forward
	st := h.sched.Stats()
	if st.Peers != 1 || st.Forwarded != 3 {
		t.Fatalf("stats = %+v, want 1 peer, 3 forwarded", st)
	}
	if got := conn.callCount("proxy.login_delegated"); got != 1 {
		t.Errorf("delegation handoffs = %d, want 1 (one owner, one session)", got)
	}
	if len(h.deleg.issued) != 1 {
		t.Errorf("secrets minted = %d, want 1", len(h.deleg.issued))
	}
	remote := h.jobs.RemoteJobs()
	if len(remote) != 3 {
		t.Fatalf("remote jobs = %d", len(remote))
	}
	for _, j := range remote {
		if j.Peer != "peer1" || j.RemoteID == "" || j.PeerSession != "sess-peer1" {
			t.Errorf("binding = %+v", j)
		}
	}

	// The transparent read path: Refresh merges the peer's terminal view.
	live, err := h.sched.Refresh(remote[0])
	if err != nil {
		t.Fatal(err)
	}
	if live.State != "done" || live.Stdout != "remote:peer1" || live.LocalUser != "joe" {
		t.Errorf("live = %+v", live)
	}

	// Next cycle pulls results back and finalizes the shadow records.
	h.sched.Kick()
	done := 0
	for _, id := range ids {
		j, _ := h.jobs.Get(id)
		if j.State == jobsvc.StateDone && strings.HasPrefix(j.Stdout, "remote:") {
			done++
		}
	}
	if done != 3 {
		t.Errorf("pulled back %d remote results, want 3", done)
	}
	if st := h.sched.Stats(); st.PulledBack != 3 {
		t.Errorf("stats = %+v", st)
	}
	h.gate <- struct{}{} // release the locally running job
	waitState(t, h.jobs, ids[0], jobsvc.StateDone)
}

func TestPeerDownAtForwardFallsBackLocally(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	h.addPeer("deadpeer", "http://dead/rpc", 4)
	delete(h.conns, "http://dead/rpc") // stats poll will fail to dial

	ids := h.submit(t, 3)
	h.sched.Kick()
	// The peer never polled alive, so nothing was claimed or lost.
	if st := h.sched.Stats(); st.Forwarded != 0 {
		t.Fatalf("stats = %+v, want no forwards to a dead peer", st)
	}
	for i := 0; i < 3; i++ {
		h.gate <- struct{}{}
	}
	for _, id := range ids {
		j := waitState(t, h.jobs, id, jobsvc.StateDone)
		if !strings.HasPrefix(j.Stdout, "local:") {
			t.Errorf("job %s ran %q, want local execution", id, j.Stdout)
		}
	}
}

func TestPeerVanishesBetweenPollAndForward(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	conn := h.addPeer("flaky", "http://flaky/rpc", 4)
	// Healthy on job.stats, but the submission round trip dies.
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		if method == "job.submit" || method == "proxy.login_delegated" {
			return nil, fmt.Errorf("connection reset")
		}
		return base(token, method, params)
	}
	ids := h.submit(t, 3)
	h.sched.Kick()
	st := h.sched.Stats()
	if st.Forwarded != 0 || st.Fallbacks == 0 {
		t.Fatalf("stats = %+v, want fallbacks and no forwards", st)
	}
	for i := 0; i < 3; i++ {
		h.gate <- struct{}{}
	}
	for _, id := range ids {
		waitState(t, h.jobs, id, jobsvc.StateDone)
	}
}

func TestDelegationRejectedKeepsJobsLocal(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	conn := h.addPeer("strict", "http://strict/rpc", 4)
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		if method == "proxy.login_delegated" {
			return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "issuer refused the delegation"}
		}
		return base(token, method, params)
	}
	h.occupy(t)
	ids := h.submit(t, 3)
	h.sched.Kick()
	if st := h.sched.Stats(); st.Forwarded != 0 || st.Fallbacks != 3 {
		t.Fatalf("stats = %+v, want 3 delegation fallbacks", st)
	}
	if got := conn.callCount("job.submit"); got != 0 {
		t.Errorf("job.submit called %d times despite rejected delegation", got)
	}
	// A refused delegation is a fault answer from a live peer: its
	// breaker stays closed, and the next cycle tries one handoff again,
	// which is refused again before any job.submit.
	if open := h.sched.Stats().BreakerOpen; open != 0 {
		t.Errorf("BreakerOpen = %d after rejected delegation, want 0", open)
	}
	h.sched.Kick()
	if got := conn.callCount("proxy.login_delegated"); got != 2 {
		t.Errorf("delegation handoffs = %d after a second cycle, want 2", got)
	}
	if st := h.sched.Stats(); st.Forwarded != 0 || st.Fallbacks != 6 || conn.callCount("job.submit") != 0 {
		t.Fatalf("stats = %+v, job.submit calls = %d; want 6 fallbacks and no submit", st, conn.callCount("job.submit"))
	}
	for i := 0; i < 4; i++ {
		h.gate <- struct{}{}
	}
	for _, id := range ids {
		waitState(t, h.jobs, id, jobsvc.StateDone)
	}
}

func TestPeerDiesAfterAcceptRequeuesLocally(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1, DeadPolls: 2}, nil)
	conn := h.addPeer("mortal", "http://mortal/rpc", 4)
	base := conn.handle
	var mu sync.Mutex
	dead := false
	conn.handle = func(token, method string, params []any) (any, error) {
		mu.Lock()
		d := dead
		mu.Unlock()
		if d {
			return nil, fmt.Errorf("connection refused")
		}
		if method == "job.status" || method == "job.output" {
			// Peer accepted the work but never finishes it.
			return map[string]any{"state": "running"}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	ids := h.submit(t, 3)
	h.sched.Kick()
	if st := h.sched.Stats(); st.Forwarded != 3 {
		t.Fatalf("stats = %+v, want 3 forwarded", st)
	}
	mu.Lock()
	dead = true
	mu.Unlock()
	h.sched.Kick() // failed poll 1
	if len(h.jobs.RemoteJobs()) != 3 {
		t.Fatalf("jobs fell back before DeadPolls tolerance")
	}
	h.sched.Kick() // failed poll 2 -> fallback
	if st := h.sched.Stats(); st.Fallbacks != 3 {
		t.Fatalf("stats = %+v, want 3 fallbacks", st)
	}
	for i := 0; i < 4; i++ {
		h.gate <- struct{}{}
	}
	for _, id := range ids {
		j := waitState(t, h.jobs, id, jobsvc.StateDone)
		if !strings.HasPrefix(j.Stdout, "local:") {
			t.Errorf("job %s = %q, want local fallback execution", id, j.Stdout)
		}
	}
}

func TestPressureThresholdHoldsWorkLocally(t *testing.T) {
	h := newHarness(t, Config{Pressure: 10}, nil)
	h.addPeer("peer1", "http://peer1/rpc", 8)
	h.submit(t, 5) // 1 running + 4 queued, below pressure 10
	h.sched.Kick()
	if st := h.sched.Stats(); st.Forwarded != 0 {
		t.Fatalf("stats = %+v: forwarded below the pressure threshold", st)
	}
	for i := 0; i < 5; i++ {
		h.gate <- struct{}{}
	}
}

func TestExpiredDelegatedSessionRenewedWithoutDuplicateRun(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1, DeadPolls: 3}, nil)
	var mu sync.Mutex
	logins := 0
	phase := "running"
	conn := &fakeConn{}
	conn.handle = func(token, method string, params []any) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		current := fmt.Sprintf("sess-%d", logins)
		switch method {
		case "job.stats":
			return map[string]any{"queued": 0, "running": 0, "workers": 4}, nil
		case "proxy.login_delegated":
			logins++
			return fmt.Sprintf("sess-%d", logins), nil
		case "job.submit":
			return "rid-1", nil
		case "job.status":
			if token != current {
				return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "session expired"}
			}
			return map[string]any{"state": phase}, nil
		case "job.output":
			return map[string]any{"stdout": "remote-result", "stderr": "", "exit_code": 0}, nil
		case "job.cancel":
			return true, nil
		}
		return nil, &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: method}
	}
	h.conns["http://renew/rpc"] = conn
	h.peers.mu.Lock()
	h.peers.entries = append(h.peers.entries, discovery.Entry{
		Server: "renew", Service: "job", URL: "http://renew/rpc", Expires: time.Now().Add(time.Minute),
	})
	h.peers.mu.Unlock()

	h.occupy(t)
	ids := h.submit(t, 1)
	h.sched.Kick()
	if st := h.sched.Stats(); st.Forwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Expire the delegated session: the peer now faults auth on the old
	// token. The scheduler must renew + rebind, not requeue (the remote
	// attempt is still running — a requeue would execute it twice).
	mu.Lock()
	logins++ // tokens issued so far are now stale
	mu.Unlock()
	h.sched.Kick()
	if st := h.sched.Stats(); st.Fallbacks != 0 {
		t.Fatalf("stats = %+v: fell back on an expired session", st)
	}
	remote := h.jobs.RemoteJobs()
	if len(remote) != 1 || remote[0].PeerSession == "sess-1" {
		t.Fatalf("remote = %+v, want renewed session binding", remote)
	}
	// With the renewed session the result flows back normally.
	mu.Lock()
	phase = "done"
	mu.Unlock()
	h.sched.Kick()
	j, _ := h.jobs.Get(ids[0])
	if j.State != jobsvc.StateDone || j.Stdout != "remote-result" {
		t.Errorf("job = %+v", j)
	}
	if st := h.sched.Stats(); st.Fallbacks != 0 || st.PulledBack != 1 {
		t.Errorf("stats = %+v", st)
	}
	h.gate <- struct{}{} // release the blocker
}

// TestRecoveredUnboundRemoteRecordRequeued: a remote record with no peer
// binding (a past process crashed between ClaimForward and MarkForwarded)
// must be reclaimed by the watch loop, not skipped forever.
func TestRecoveredUnboundRemoteRecordRequeued(t *testing.T) {
	h := newHarness(t, Config{Pressure: 10}, nil) // high pressure: no forwarding
	h.occupy(t)
	ids := h.submit(t, 1)
	// Simulate the crash: claim the job for a peer but never bind it.
	if claimed := h.jobs.ClaimForward(1, "ghost"); len(claimed) != 1 {
		t.Fatalf("claimed %d jobs, want 1", len(claimed))
	}
	h.sched.Kick()
	if st := h.sched.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want the unbound record reclaimed", st)
	}
	h.gate <- struct{}{}
	h.gate <- struct{}{}
	j := waitState(t, h.jobs, ids[0], jobsvc.StateDone)
	if !strings.HasPrefix(j.Stdout, "local:") {
		t.Errorf("job ran %q, want local execution", j.Stdout)
	}
}

// TestPartitionedPeerOrphanCancelledOnReturn: after the at-least-once
// fallback reclaims a job from an unresponsive peer, the remote copy is
// remembered and best-effort cancelled once the peer answers again.
func TestPartitionedPeerOrphanCancelledOnReturn(t *testing.T) {
	// The partition trips the peer's breaker; a short cooldown lets the
	// healed cycle's job.stats probe re-close it so the reap proceeds.
	h := newHarness(t, Config{Pressure: -1, DeadPolls: 2,
		Breaker: resilience.BreakerConfig{OpenFor: 50 * time.Millisecond}}, nil)
	conn := h.addPeer("island", "http://island/rpc", 4)
	base := conn.handle
	var mu sync.Mutex
	partitioned := false
	conn.handle = func(token, method string, params []any) (any, error) {
		mu.Lock()
		p := partitioned
		mu.Unlock()
		if p {
			return nil, fmt.Errorf("network partition")
		}
		if method == "job.status" || method == "job.output" {
			// The peer holds the job but never finishes it.
			return map[string]any{"state": "running"}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	ids := h.submit(t, 1)
	h.sched.Kick()
	if st := h.sched.Stats(); st.Forwarded != 1 {
		t.Fatalf("stats = %+v, want 1 forwarded", st)
	}
	mu.Lock()
	partitioned = true
	mu.Unlock()
	h.sched.Kick() // failed poll 1
	h.sched.Kick() // failed poll 2 -> fallback, orphan remembered
	if st := h.sched.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", st)
	}
	if open := h.sched.Stats().BreakerOpen; open != 1 {
		t.Errorf("BreakerOpen = %d during the partition, want 1", open)
	}
	if got := conn.callCount("job.cancel"); got != 0 {
		t.Fatalf("job.cancel called %d times while the peer was unreachable", got)
	}
	// Drain the reclaimed job locally before the partition heals so the
	// healed cycle has nothing to re-forward.
	h.gate <- struct{}{}
	h.gate <- struct{}{}
	j := waitState(t, h.jobs, ids[0], jobsvc.StateDone)
	if !strings.HasPrefix(j.Stdout, "local:") {
		t.Errorf("job ran %q, want local fallback execution", j.Stdout)
	}
	mu.Lock()
	partitioned = false
	mu.Unlock()
	time.Sleep(75 * time.Millisecond) // let the breaker cooldown elapse
	h.sched.Kick()                    // peer answers again: the orphaned copy is cancelled
	if got := conn.callCount("job.cancel"); got != 1 {
		t.Errorf("job.cancel = %d calls after the peer returned, want 1", got)
	}
	if open := h.sched.Stats().BreakerOpen; open != 0 {
		t.Errorf("BreakerOpen = %d after the peer returned, want 0", open)
	}
}

// TestPeerExchangeOutcomes pins the one rule every round trip to a peer
// follows: a fault answer means the peer is alive, so the connection
// stays cached and the breaker records no failure; a transport error
// counts one breaker failure and drops the connection, so the next call
// re-dials. A forward that fails without a fault answer also force-opens
// the peer's breaker, so those rows find it open and reset it before
// checking for a re-dial.
func TestPeerExchangeOutcomes(t *testing.T) {
	const url = "http://peer1/rpc"
	otherDN := pki.MustParseDN("/O=grid/OU=People/CN=Other User")
	watch := func(h *harness, j *jobsvc.Job) { h.sched.watchRemote() }
	// forwardOther queues a job for an owner with no delegated session
	// yet, so its forward logs in on the peer before it submits.
	forwardOther := func(h *harness, j *jobsvc.Job) {
		if _, err := h.jobs.Submit(otherDN, "echo other", 0, 0); err != nil {
			t.Error(err)
		}
		h.sched.forward()
	}
	callers := []struct {
		name     string
		method   string // the outcome is injected on this method ("system.multicall": the whole batch)
		status   string // the peer's job.status answer; "expired" is an auth fault
		artifact bool   // job.output references an artifact fetched with file.read
		forward  bool   // a transport failure force-opens the breaker
		run      func(h *harness, j *jobsvc.Job)
	}{
		{name: "stats poll", method: "job.stats", run: func(h *harness, j *jobsvc.Job) { h.sched.pollPeers() }},
		{name: "watch sweep", method: "system.multicall", run: watch},
		{name: "orphan reap", method: "job.cancel", run: func(h *harness, j *jobsvc.Job) {
			h.sched.mu.Lock()
			h.sched.orphans[url] = []orphan{{remoteID: j.RemoteID, token: j.PeerSession}}
			h.sched.mu.Unlock()
			h.sched.reapOrphans()
		}},
		{name: "Refresh", method: "system.multicall", run: func(h *harness, j *jobsvc.Job) { h.sched.Refresh(j) }},
		{name: "CancelRemote", method: "job.cancel", run: func(h *harness, j *jobsvc.Job) { h.sched.CancelRemote(j) }},
		{name: "forward login", method: "proxy.login_delegated", forward: true, run: forwardOther},
		{name: "forward submit", method: "system.multicall", forward: true, run: forwardOther},
		{name: "pull-back", method: "job.output", status: "done", run: watch},
		{name: "artifact", method: "file.read", status: "done", artifact: true, run: watch},
		{name: "renewal", method: "proxy.login_delegated", status: "expired", run: watch},
	}
	outcomes := []struct {
		name     string
		err      error
		failures uint64
		redial   bool
	}{
		{"fault", &rpc.Fault{Code: rpc.CodeApplication, Message: "refused"}, 0, false},
		{"transport error", errors.New("connection reset"), 1, true},
	}
	for _, c := range callers {
		for _, o := range outcomes {
			t.Run(c.name+"/"+o.name, func(t *testing.T) {
				stager := &tempStager{root: t.TempDir()}
				h := newHarnessJobs(t, Config{Pressure: -1}, jobsvc.Config{Workers: 1, Artifacts: stager}, nil)
				conn := h.addPeer("peer1", url, 4)
				base := conn.handle
				conn.handle = func(token, method string, params []any) (any, error) {
					switch method {
					case "job.status":
						switch c.status {
						case "":
							return map[string]any{"state": "running"}, nil
						case "expired":
							return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "session expired"}
						}
						return map[string]any{"state": c.status}, nil
					case "job.output":
						if c.artifact {
							return map[string]any{"stdout": "h", "stderr": "", "exit_code": 0, "truncated": true,
								"artifacts": []any{map[string]any{"name": "stdout", "path": "/jobs/r/stdout", "size": 4}}}, nil
						}
					case "file.read":
						return map[string]any{"data": []byte("data"), "eof": true}, nil
					}
					return base(token, method, params)
				}
				h.occupy(t)
				h.submit(t, 1)
				h.sched.Kick() // the stats poll dials; the job is forwarded
				remote := h.jobs.RemoteJobs()
				if len(remote) != 1 || h.dialCount(url) != 1 {
					t.Fatalf("remote jobs = %d, dials = %d; want 1 and 1", len(remote), h.dialCount(url))
				}
				before := h.sched.breakers.For(url).Stats().Failures
				attempts := conn.callCount(c.method)

				conn.failWith(c.method, o.err)
				c.run(h, remote[0])
				conn.failWith(c.method, nil)

				if conn.callCount(c.method) == attempts {
					t.Fatalf("%s never reached the peer", c.method)
				}
				if got := h.sched.breakers.For(url).Stats().Failures - before; got != o.failures {
					t.Errorf("breaker failures +%d, want +%d", got, o.failures)
				}
				penalized := c.forward && o.redial
				want := resilience.Closed
				if penalized {
					want = resilience.Open
				}
				if st := h.sched.breakers.State(url); st != want {
					t.Errorf("breaker %s, want %s", st, want)
				}
				if penalized {
					h.sched.breakers.Forget(url) // let the next call through
				}
				h.sched.pollPeers()
				if redialed := h.dialCount(url) > 1; redialed != o.redial {
					t.Errorf("next call re-dialed = %v, want %v", redialed, o.redial)
				}
				// Release the blocker and any job that fell back behind it.
				h.gate <- struct{}{}
				h.gate <- struct{}{}
			})
		}
	}
}

// TestFailedPushDialPollsTheWholeGroup: a group whose push dial fails
// has no stream, so every Kick status-polls all of its jobs, and the
// dial is tried again only once its backoff (5s at this poll interval)
// has passed.
func TestFailedPushDialPollsTheWholeGroup(t *testing.T) {
	var mu sync.Mutex
	dials := 0
	dialed := func() int {
		mu.Lock()
		defer mu.Unlock()
		return dials
	}
	refuse := func(url, token, query string) (EventStream, error) {
		mu.Lock()
		dials++
		mu.Unlock()
		return nil, errors.New("no /ws endpoint")
	}
	h := newHarness(t, Config{Pressure: -1, PollInterval: 10 * time.Millisecond, EventDial: refuse}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		if method == "job.status" {
			return map[string]any{"state": "running"}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	h.submit(t, 2)
	h.sched.Kick() // forward both jobs
	if st := h.sched.Stats(); st.Forwarded != 2 {
		t.Fatalf("stats = %+v, want 2 forwarded", st)
	}
	var failedAt time.Time
	for i := 1; i <= 3; i++ {
		h.sched.Kick()
		if i == 1 {
			failedAt = time.Now()
		}
		if st := h.sched.Stats(); st.StatusRPCs != uint64(2*i) || st.PushWatches != 0 {
			t.Fatalf("cycle %d: stats = %+v, want %d status polls and no push watch", i, st, 2*i)
		}
		if n := dialed(); n != 1 {
			t.Fatalf("cycle %d: push dials = %d, want 1 (no re-dial inside the backoff)", i, n)
		}
	}
	time.Sleep(time.Until(failedAt.Add(5*time.Second)) + 20*time.Millisecond)
	h.sched.Kick()
	if n := dialed(); n != 2 {
		t.Errorf("push dials = %d after the backoff, want 2", n)
	}
	if st := h.sched.Stats(); st.StatusRPCs != 8 {
		t.Errorf("StatusRPCs = %d, want 8 (the whole group, every cycle)", st.StatusRPCs)
	}
	h.gate <- struct{}{} // release the blocker
}

// TestExpiringPeerKeepsOtherPeersSessions: when a peer's discovery
// record expires, only its own delegated sessions are dropped — not
// those of a peer whose name merely starts with the expired name.
func TestExpiringPeerKeepsOtherPeersSessions(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	h.addPeer("site", "http://site/rpc", 1)
	other := h.addPeer("site|b", "http://siteb/rpc", 1)
	h.occupy(t)
	h.submit(t, 2)
	h.sched.Kick() // one job to each peer, one delegation handoff each
	if st := h.sched.Stats(); st.Forwarded != 2 || other.callCount("proxy.login_delegated") != 1 {
		t.Fatalf("stats = %+v, site|b logins = %d; want 2 forwarded and 1 login", st, other.callCount("proxy.login_delegated"))
	}
	// Peer "site" stops advertising and its record's TTL runs out.
	h.peers.mu.Lock()
	h.peers.entries = h.peers.entries[1:]
	h.peers.mu.Unlock()
	h.sched.mu.Lock()
	h.sched.table["site"].expires = time.Time{}
	h.sched.mu.Unlock()
	h.sched.Kick() // "site" leaves the table; both results are pulled back
	if st := h.sched.Stats(); st.Peers != 1 || st.PulledBack != 2 {
		t.Fatalf("stats = %+v, want 1 peer and 2 pulled back", st)
	}
	h.submit(t, 1)
	h.sched.Kick() // forwarded to site|b under its cached session
	if st := h.sched.Stats(); st.Forwarded != 3 {
		t.Fatalf("stats = %+v, want 3 forwarded", st)
	}
	if n := other.callCount("proxy.login_delegated"); n != 1 {
		t.Errorf("site|b logins = %d, want 1 (its session outlives peer site)", n)
	}
	h.gate <- struct{}{} // release the blocker
}

// TestRedialedWatchCoversTheGap: when a push watch's stream ends, the
// next cycle dials a fresh watch whose first sweep finds a job that
// finished while no stream was open — with no event, and without
// waiting for the safety sweep.
func TestRedialedWatchCoversTheGap(t *testing.T) {
	events := &fakeEvents{}
	h := newHarness(t, Config{Pressure: -1, EventDial: events.dial}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	base := conn.handle
	var mu sync.Mutex
	state := "running"
	conn.handle = func(token, method string, params []any) (any, error) {
		if method == "job.status" {
			mu.Lock()
			defer mu.Unlock()
			return map[string]any{"state": state}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	ids := h.submit(t, 1)
	h.sched.Kick() // forward
	h.sched.Kick() // dial the watch; its first sweep polls the running job
	if st := h.sched.Stats(); st.Forwarded != 1 || st.StatusRPCs != 1 || st.PushWatches != 1 {
		t.Fatalf("stats = %+v, want 1 forwarded, 1 status poll, 1 push watch", st)
	}

	// End the stream and wait for the watch to see it; then the job
	// finishes on the peer with no event to say so.
	select {
	case <-h.sched.wakeCh:
	default:
	}
	events.dialed()[0].Close()
	select {
	case <-h.sched.wakeCh:
	case <-time.After(5 * time.Second):
		t.Fatal("the watch never noticed its stream end")
	}
	mu.Lock()
	state = "done"
	mu.Unlock()

	h.sched.Kick()
	if n := len(events.dialed()); n != 2 {
		t.Errorf("push dials = %d, want 2 (a fresh watch after the stream ended)", n)
	}
	if j, _ := h.jobs.Get(ids[0]); j.State != jobsvc.StateDone {
		t.Errorf("job state = %s after the re-dial, want done", j.State)
	}
	h.gate <- struct{}{} // release the blocker
}

// tempStager is a minimal jobsvc.ArtifactStager over a temp directory.
type tempStager struct {
	root string
}

func (d *tempStager) Create(jobID string, owner pki.DN) (string, string, error) {
	dir := filepath.Join(d.root, jobID)
	return dir, "/jobs/" + jobID, os.MkdirAll(dir, 0o755)
}
func (d *tempStager) Remove(jobID string) error { return os.RemoveAll(filepath.Join(d.root, jobID)) }
func (d *tempStager) List() ([]string, error) {
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

// TestPullBackRestagesArtifacts: a peer that staged a multi-chunk output
// reports truncated heads plus an artifact reference; the watch loop must
// fetch the artifact via chunk-iterated file.read under the delegated
// session and re-stage it locally, digest-checked, so the shadow record
// converges to a locally fetchable artifact.
func TestPullBackRestagesArtifacts(t *testing.T) {
	stager := &tempStager{root: t.TempDir()}
	h := newHarnessJobs(t, Config{Pressure: -1}, jobsvc.Config{Workers: 1, Artifacts: stager}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)

	// The peer's staged stream: 2.5 chunks of patterned bytes.
	content := make([]byte, artifactChunk*2+artifactChunk/2)
	for i := range content {
		content[i] = byte(i * 31)
	}
	sum := md5.Sum(content)
	wantMD5 := hex.EncodeToString(sum[:])
	var readTokens []string
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		switch method {
		case "job.output":
			return map[string]any{
				"stdout": "head-only", "stderr": "", "exit_code": 0, "truncated": true,
				"artifacts": []any{map[string]any{
					"name": "stdout", "path": "/jobs/rjob/stdout",
					"size": len(content), "md5": wantMD5,
				}},
			}, nil
		case "file.read":
			readTokens = append(readTokens, token)
			if params[0].(string) != "/jobs/rjob/stdout" {
				return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: "wrong path"}
			}
			off := params[1].(int)
			n := params[2].(int)
			if off > len(content) {
				off = len(content)
			}
			end := off + n
			if end > len(content) {
				end = len(content)
			}
			return map[string]any{"data": content[off:end], "eof": end >= len(content)}, nil
		}
		return base(token, method, params)
	}

	h.occupy(t)
	j, err := h.jobs.Submit(ownerDN, "big-output", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.sched.Kick() // forward
	if st := h.sched.Stats(); st.Forwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	h.sched.Kick() // watch: terminal on peer -> pull back + re-stage
	got := waitState(t, h.jobs, j.ID, jobsvc.StateDone)
	if !got.Truncated || got.Stdout != "head-only" {
		t.Errorf("shadow record = %+v", got)
	}
	if len(got.Artifacts) != 1 {
		t.Fatalf("artifacts = %+v", got.Artifacts)
	}
	a := got.Artifacts[0]
	if a.Path != "/jobs/"+j.ID+"/stdout" || a.Size != int64(len(content)) || a.MD5 != wantMD5 {
		t.Errorf("re-staged artifact = %+v", a)
	}
	data, err := os.ReadFile(filepath.Join(stager.root, j.ID, "stdout"))
	if err != nil || !bytes.Equal(data, content) {
		t.Fatalf("re-staged bytes differ (%d vs %d, %v)", len(data), len(content), err)
	}
	// Transfers ran under the owner's delegated session, chunked.
	if len(readTokens) < 3 {
		t.Errorf("file.read calls = %d, want chunk iteration", len(readTokens))
	}
	for _, tok := range readTokens {
		if tok != "sess-peer1" {
			t.Errorf("file.read under token %q, want the delegated session", tok)
		}
	}
	if st := h.sched.Stats(); st.ArtifactBytes != uint64(len(content)) {
		t.Errorf("ArtifactBytes = %d, want %d", st.ArtifactBytes, len(content))
	}
	h.gate <- struct{}{} // let the blocker finish
}

// TestPullBackDigestMismatchRetries: a corrupted transfer must not
// finalize the shadow record.
func TestPullBackDigestMismatchRetries(t *testing.T) {
	stager := &tempStager{root: t.TempDir()}
	h := newHarnessJobs(t, Config{Pressure: -1}, jobsvc.Config{Workers: 1, Artifacts: stager}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		switch method {
		case "job.output":
			return map[string]any{
				"stdout": "h", "stderr": "", "exit_code": 0, "truncated": true,
				"artifacts": []any{map[string]any{
					"name": "stdout", "path": "/jobs/rjob/stdout", "size": 4, "md5": "00000000000000000000000000000000",
				}},
			}, nil
		case "file.read":
			return map[string]any{"data": []byte("data"), "eof": true}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	j, err := h.jobs.Submit(ownerDN, "corrupt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.sched.Kick() // forward
	h.sched.Kick() // pull-back attempt: digest mismatch
	if got, _ := h.jobs.Get(j.ID); got.State != jobsvc.StateRemote {
		t.Errorf("state = %s, want still remote (retry next cycle)", got.State)
	}
	// The partial stage was discarded.
	if _, err := os.Stat(filepath.Join(stager.root, j.ID)); !os.IsNotExist(err) {
		t.Error("partial artifact tree not discarded")
	}
	h.gate <- struct{}{}
}

// TestPullBackSkipsOversizedArtifact: a peer artifact beyond the local
// spool cap is skipped up front (it could never digest-verify here); the
// job still finalizes with its truncated heads.
func TestPullBackSkipsOversizedArtifact(t *testing.T) {
	stager := &tempStager{root: t.TempDir()}
	h := newHarnessJobs(t, Config{Pressure: -1}, jobsvc.Config{Workers: 1, Artifacts: stager, SpoolLimit: 1024}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		switch method {
		case "job.output":
			return map[string]any{
				"stdout": "head", "stderr": "", "exit_code": 0, "truncated": true,
				"artifacts": []any{map[string]any{
					"name": "stdout", "path": "/jobs/rjob/stdout", "size": 10_000_000, "md5": "ff",
				}},
			}, nil
		case "file.read":
			t.Error("oversized artifact must not be transferred at all")
			return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: "unexpected"}
		}
		return base(token, method, params)
	}
	h.occupy(t)
	j, err := h.jobs.Submit(ownerDN, "huge-output", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.sched.Kick() // forward
	h.sched.Kick() // pull back, skipping the artifact
	got := waitState(t, h.jobs, j.ID, jobsvc.StateDone)
	if !got.Truncated || len(got.Artifacts) != 0 || got.Stdout != "head" {
		t.Errorf("finalized = truncated %v artifacts %+v stdout %q", got.Truncated, got.Artifacts, got.Stdout)
	}
	h.gate <- struct{}{}
}

// TestFailedForwardFallsBackTheRestOfTheCycle: a failed forward opens
// the peer's breaker, so the other owners' batches for that peer in the
// same cycle fall back at once instead of trying the peer again.
func TestFailedForwardFallsBackTheRestOfTheCycle(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	conn := h.addPeer("strict", "http://strict/rpc", 4)
	conn.failWith("proxy.login_delegated", &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "issuer refused the delegation"})
	h.occupy(t)
	ids := h.submit(t, 2)
	j, err := h.jobs.Submit(pki.MustParseDN("/O=grid/OU=People/CN=Other User"), "echo other", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, j.ID)
	h.sched.Kick() // two owners' batches for one peer; the first handoff fails
	if got := conn.callCount("proxy.login_delegated"); got != 1 {
		t.Errorf("delegation handoffs = %d, want 1 (the second owner falls back without one)", got)
	}
	if st := h.sched.Stats(); st.Forwarded != 0 || st.Fallbacks != 3 {
		t.Fatalf("stats = %+v, want 3 fallbacks", st)
	}
	for range 4 {
		h.gate <- struct{}{}
	}
	for _, id := range ids {
		waitState(t, h.jobs, id, jobsvc.StateDone)
	}
}

// TestRefusedDelegationSparesHealthyRemoteJobs: a peer that refuses one
// owner's delegation is still alive. Its breaker stays closed, so the
// other owner's job keeps running there through later watch sweeps
// instead of falling back after DeadPolls refused sweeps.
func TestRefusedDelegationSparesHealthyRemoteJobs(t *testing.T) {
	h := newHarness(t, Config{Pressure: -1}, nil)
	conn := h.addPeer("peer1", "http://peer1/rpc", 4)
	base := conn.handle
	conn.handle = func(token, method string, params []any) (any, error) {
		if method == "job.status" {
			return map[string]any{"state": "running"}, nil
		}
		return base(token, method, params)
	}
	h.occupy(t)
	// Release whatever runs locally at the end, even on failure.
	t.Cleanup(func() { h.gate <- struct{}{}; h.gate <- struct{}{} })
	ids := h.submit(t, 1)
	h.sched.Kick() // forwarded under the first owner's delegated session
	if st := h.sched.Stats(); st.Forwarded != 1 {
		t.Fatalf("stats = %+v, want 1 forwarded", st)
	}

	conn.failWith("proxy.login_delegated", &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "issuer refused the delegation"})
	other, err := h.jobs.Submit(pki.MustParseDN("/O=grid/OU=People/CN=Other User"), "echo other", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.sched.Kick() // the second owner's handoff is refused
	// The refused job runs here once the blocker is done, so later cycles
	// have nothing left to forward.
	h.gate <- struct{}{}
	waitState(t, h.jobs, other.ID, jobsvc.StateRunning)

	for range 3 {
		h.sched.Kick()
	}
	if st := h.sched.Stats(); st.Fallbacks != 1 || st.Peers != 1 {
		t.Errorf("stats = %+v, want 1 fallback and 1 live peer", st)
	}
	if j, _ := h.jobs.Get(ids[0]); j.State != jobsvc.StateRemote {
		t.Errorf("healthy remote job = %s, want still %s", j.State, jobsvc.StateRemote)
	}
}

// TestStatsSectionMatchesGauges: the system.stats section and the
// clarens.federation.<key> gauges come from one table, so every section
// key has a gauge with the same value.
func TestStatsSectionMatchesGauges(t *testing.T) {
	reg := telemetry.New()
	h := newHarness(t, Config{Pressure: -1, Telemetry: reg}, nil)
	h.addPeer("peer1", "http://peer1/rpc", 4)
	h.occupy(t)
	h.submit(t, 2)
	h.sched.Kick() // forward
	h.sched.Kick() // pull back
	section := h.sched.StatsSection()
	if section["forwarded"] != 2 || section["pulled_back"] != 2 || section["peers"] != 1 {
		t.Fatalf("section = %v, want 2 forwarded, 2 pulled back, 1 peer", section)
	}
	gauges := reg.GaugeValues()
	for key, v := range section {
		g, ok := gauges["clarens.federation."+key]
		if n, isInt := v.(int); !ok || !isInt || g != float64(n) {
			t.Errorf("section %s = %v (%T), gauge = %v (registered: %v)", key, v, v, g, ok)
		}
	}
	h.gate <- struct{}{} // release the blocker
}
