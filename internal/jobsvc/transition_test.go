package jobsvc

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
)

// lifecycleLog is a slog.Handler keeping each lifecycle entry as
// "<job> <state>".
type lifecycleLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *lifecycleLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *lifecycleLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *lifecycleLog) WithGroup(string) slog.Handler            { return l }
func (l *lifecycleLog) Handle(_ context.Context, r slog.Record) error {
	var job, state string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "job":
			job = a.Value.String()
		case "state":
			state = a.Value.String()
		}
		return true
	})
	l.mu.Lock()
	l.entries = append(l.entries, job+" "+state)
	l.mu.Unlock()
	return nil
}

// machine drives one Service whose attempts each block until the test
// hands them a token: a "fail" command then exits 1, anything else 0.
type machine struct {
	t      *testing.T
	s      *Service
	gate   chan struct{}
	log    *lifecycleLog
	events *pubsub.Subscription
}

// startMachine starts the Service on a fresh server whose store holds
// seed and whose request log is the machine's lifecycle log.
func startMachine(t *testing.T, cfg Config, seed ...*Job) *machine {
	t.Helper()
	m := &machine{t: t, gate: make(chan struct{}), log: &lifecycleLog{}}
	srv, err := core.NewServer(core.Config{RequestLog: slog.New(m.log)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for _, j := range seed {
		if err := srv.Store().PutJSON(bucket, j.ID, j); err != nil {
			t.Fatal(err)
		}
	}
	m.events = srv.Events().Subscribe("transitions", func(ev *pubsub.Event) bool { return ev.Type == "job.state" }, 4096)
	s, err := New(srv, cfg, func(ctx context.Context, owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error) {
		select {
		case <-m.gate:
		case <-ctx.Done():
		}
		if command == "fail" {
			return ExecStatus{ExitCode: 1}, nil
		}
		return ExecStatus{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.s = s
	t.Cleanup(func() { core.HardStop(s.Drain) })
	return m
}

func (m *machine) submit(command string, priority, retries int) string {
	m.t.Helper()
	j, err := m.s.Submit(alice, command, priority, retries)
	if err != nil {
		m.t.Fatal(err)
	}
	return j.ID
}

// release lets one blocked attempt return.
func (m *machine) release() { m.gate <- struct{}{} }

func (m *machine) waitState(id, state string) {
	m.t.Helper()
	waitFor(m.t, func() bool {
		j, ok := m.s.Get(id)
		return ok && j.State == state
	})
	// The record is written first inside a transition; holding the lock
	// once means the whole transition has completed.
	m.s.mu.Lock()
	m.s.mu.Unlock()
}

// busy occupies the single worker with an attempt that blocks, so jobs
// submitted afterwards stay queued.
func (m *machine) busy() {
	m.waitState(m.submit("hold", 100, 0), StateRunning)
}

func (m *machine) claim(id string) {
	m.t.Helper()
	if got := m.s.ClaimForward(1, "peer-x"); len(got) != 1 || got[0].ID != id {
		m.t.Fatalf("claimed %+v, want %s", got, id)
	}
}

// since returns the job.state events and log entries about id that were
// produced after the given log mark, draining the event subscription.
func (m *machine) since(id string, logMark int) (events, entries []string) {
	for drained := false; !drained; {
		select {
		case ev := <-m.events.Events():
			if ev.Tags["job_id"] == id {
				events = append(events, ev.Tags["state"])
			}
		default:
			drained = true
		}
	}
	m.log.mu.Lock()
	defer m.log.mu.Unlock()
	for _, e := range m.log.entries[logMark:] {
		if state, ok := strings.CutPrefix(e, id+" "); ok {
			entries = append(entries, state)
		}
	}
	return events, entries
}

// TestEveryTransitionAnnouncedOnce: each of the job state machine's
// sixteen transition kinds publishes exactly one job.state event and
// writes exactly one lifecycle log entry, both carrying the new state.
func TestEveryTransitionAnnouncedOnce(t *testing.T) {
	running := func(id string, attempts, maxRetries int, cancel bool) *Job {
		return &Job{ID: id, Owner: alice.String(), Command: "echo x", State: StateRunning,
			Attempts: attempts, MaxRetries: maxRetries, Cancel: cancel, Submitted: time.Now()}
	}
	cases := []struct {
		name string
		to   string
		// stored, when set, is a record persisted before the service
		// starts: the transition is its restart recovery.
		stored *Job
		setup  func(m *machine) string     // brings a job to the state before the transition
		act    func(m *machine, id string) // nil: the transition is a submission
	}{
		{name: "submit", to: StateQueued,
			setup: func(m *machine) string { m.busy(); return "" }},
		{name: "start", to: StateRunning,
			setup: func(m *machine) string { m.busy(); return m.submit("ok", 0, 0) },
			act:   func(m *machine, id string) { m.release() }},
		{name: "attempt done", to: StateDone,
			setup: func(m *machine) string { id := m.submit("ok", 0, 0); m.waitState(id, StateRunning); return id },
			act:   func(m *machine, id string) { m.release() }},
		{name: "attempt failed", to: StateFailed,
			setup: func(m *machine) string { id := m.submit("fail", 0, 0); m.waitState(id, StateRunning); return id },
			act:   func(m *machine, id string) { m.release() }},
		{name: "attempt cancelled", to: StateCancelled,
			setup: func(m *machine) string { id := m.submit("ok", 0, 0); m.waitState(id, StateRunning); return id },
			act:   func(m *machine, id string) { m.s.Cancel(id) }},
		{name: "retry", to: StateQueued,
			setup: func(m *machine) string {
				id := m.submit("fail", 0, 1)
				m.waitState(id, StateRunning)
				m.submit("hold", 100, 0) // takes the worker once the attempt ends
				return id
			},
			act: func(m *machine, id string) { m.release() }},
		{name: "cancel queued", to: StateCancelled,
			setup: func(m *machine) string { m.busy(); return m.submit("ok", 0, 0) },
			act:   func(m *machine, id string) { m.s.Cancel(id) }},
		{name: "forward", to: StateRemote,
			setup: func(m *machine) string { m.busy(); return m.submit("ok", 0, 0) },
			act:   func(m *machine, id string) { m.claim(id) }},
		{name: "fallback", to: StateQueued,
			setup: func(m *machine) string { m.busy(); id := m.submit("ok", 0, 0); m.claim(id); return id },
			act:   func(m *machine, id string) { m.s.RequeueLocal(id, "peer died") }},
		{name: "fallback cancelled", to: StateCancelled,
			setup: func(m *machine) string {
				m.busy()
				id := m.submit("ok", 0, 0)
				m.claim(id)
				m.s.Cancel(id)
				return id
			},
			act: func(m *machine, id string) { m.s.RequeueLocal(id, "peer died") }},
		{name: "remote done", to: StateDone,
			setup: func(m *machine) string { m.busy(); id := m.submit("ok", 0, 0); m.claim(id); return id },
			act:   func(m *machine, id string) { m.s.CompleteRemote(id, StateDone, ExecResult{}, "") }},
		{name: "remote failed", to: StateFailed,
			setup: func(m *machine) string { m.busy(); id := m.submit("ok", 0, 0); m.claim(id); return id },
			act:   func(m *machine, id string) { m.s.CompleteRemote(id, StateFailed, ExecResult{ExitCode: 1}, "") }},
		{name: "remote cancelled", to: StateCancelled,
			setup: func(m *machine) string { m.busy(); id := m.submit("ok", 0, 0); m.claim(id); return id },
			act:   func(m *machine, id string) { m.s.CompleteRemote(id, StateCancelled, ExecResult{}, "") }},
		{name: "restart cancels", to: StateCancelled, stored: running(mustID(t, time.Now()), 1, 2, true)},
		{name: "restart requeues", to: StateQueued, stored: running(mustID(t, time.Now()), 1, 2, false)},
		{name: "restart fails", to: StateFailed, stored: running(mustID(t, time.Now()), 3, 2, false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seed []*Job
			id := ""
			if tc.stored != nil {
				// A higher-priority queued job takes the worker first, so
				// a recovered job re-queued stays queued.
				blocker := &Job{ID: mustID(t, time.Now().Add(-time.Second)), Owner: alice.String(), Command: "hold",
					Priority: 100, State: StateQueued, Submitted: time.Now()}
				seed = []*Job{blocker, tc.stored}
				id = tc.stored.ID
			}
			m := startMachine(t, Config{Workers: 1}, seed...)
			logMark := 0
			if tc.stored == nil {
				id = tc.setup(m)
				m.since(id, 0) // discard the setup's own transitions
				m.log.mu.Lock()
				logMark = len(m.log.entries)
				m.log.mu.Unlock()
				if tc.act == nil {
					id = m.submit("ok", 0, 0)
				} else {
					tc.act(m, id)
				}
			}
			m.waitState(id, tc.to)
			events, entries := m.since(id, logMark)
			if len(events) != 1 || events[0] != tc.to {
				t.Errorf("job.state events = %v, want exactly [%s]", events, tc.to)
			}
			if len(entries) != 1 || entries[0] != tc.to {
				t.Errorf("lifecycle log entries = %v, want exactly [%s]", entries, tc.to)
			}
		})
	}
}

// TestCountsMatchJobTable runs a seeded mix of submit, cancel, forward,
// fallback, remote completion and attempt ends, crashes and recovers the
// scheduler, runs more, and then requires Stats() and both per-owner
// quota maps to equal a scan of the job table by state and owner.
func TestCountsMatchJobTable(t *testing.T) {
	owners := []pki.DN{alice, bob, pki.MustParseDN("/O=grid/OU=People/CN=Carol")}
	cfg := Config{Workers: 2, MaxPerOwner: 1, MaxQueuedPerOwner: 6}
	rng := rand.New(rand.NewSource(32))
	run := func(m *machine, ops int) {
		for range ops {
			jobs, _ := m.s.List("", "")
			remote := m.s.RemoteJobs()
			switch op := rng.Intn(6); {
			case op == 0 || len(jobs) == 0:
				cmd := []string{"ok", "fail"}[rng.Intn(2)]
				m.s.Submit(owners[rng.Intn(len(owners))], cmd, rng.Intn(3), rng.Intn(3))
			case op == 1:
				m.s.Cancel(jobs[rng.Intn(len(jobs))].ID)
			case op == 2:
				m.s.ClaimForward(1+rng.Intn(2), "peer-x")
			case op == 3 && len(remote) > 0:
				m.s.RequeueLocal(remote[rng.Intn(len(remote))].ID, "peer died")
			case op == 4 && len(remote) > 0:
				state := []string{StateDone, StateFailed, StateCancelled}[rng.Intn(3)]
				m.s.CompleteRemote(remote[rng.Intn(len(remote))].ID, state, ExecResult{}, "")
			default:
				select { // let one blocked attempt end, if one is waiting
				case m.gate <- struct{}{}:
				case <-time.After(time.Millisecond):
				}
			}
		}
	}

	m1 := startMachine(t, cfg)
	run(m1, 150)
	// Make sure an attempt is in flight, so recovery has one to resolve.
	if _, err := m1.s.Submit(pki.MustParseDN("/O=grid/OU=People/CN=Dave"), "ok", 100, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { running, _ := m1.s.List("", StateRunning); return len(running) > 0 })
	// Crash: the next scheduler starts from the table as persisted now,
	// while the first one's attempts stay blocked.
	m1.s.mu.Lock()
	table, err := m1.s.List("", "")
	m1.s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]int{}
	for _, j := range table {
		before[j.State]++
	}
	m2 := startMachine(t, cfg, table...)
	run(m2, 150)

	// Workers settle once every attempt is blocked or no queued job is
	// runnable; compare until they have.
	var diff string
	deadline := time.Now().Add(5 * time.Second)
	for {
		diff = countsDiff(m2.s, before)
		if diff == "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if diff != "" {
		t.Fatal(diff)
	}
}

// countsDiff compares the scheduler's counters with a scan of its job
// table; terminal counts are this process's, so the table's terminal
// records at startup (before) are subtracted.
func countsDiff(s *Service, before map[string]int) string {
	jobs, err := s.List("", "")
	if err != nil {
		return err.Error()
	}
	byState := map[string]int{}
	running, queued := map[string]int{}, map[string]int{}
	for _, j := range jobs {
		byState[j.State]++
		switch j.State {
		case StateRunning:
			running[j.Owner]++
		case StateQueued:
			queued[j.Owner]++
		}
	}
	want := Snapshot{
		Queued:    byState[StateQueued],
		Running:   byState[StateRunning],
		Remote:    byState[StateRemote],
		Done:      uint64(byState[StateDone] - before[StateDone]),
		Failed:    uint64(byState[StateFailed] - before[StateFailed]),
		Cancelled: uint64(byState[StateCancelled] - before[StateCancelled]),
	}
	sn := s.Stats()
	got := Snapshot{Queued: sn.Queued, Running: sn.Running, Remote: sn.Remote, Done: sn.Done, Failed: sn.Failed, Cancelled: sn.Cancelled}
	s.mu.Lock()
	ownerRunning, ownerQueued := maps.Clone(s.ownerRunning), maps.Clone(s.ownerQueued)
	s.mu.Unlock()
	switch {
	case got != want:
		return fmt.Sprintf("Stats() = %+v, table says %+v", got, want)
	case !maps.Equal(ownerRunning, running):
		return fmt.Sprintf("running quota = %v, table says %v", ownerRunning, running)
	case !maps.Equal(ownerQueued, queued):
		return fmt.Sprintf("queued quota = %v, table says %v", ownerQueued, queued)
	}
	return ""
}
