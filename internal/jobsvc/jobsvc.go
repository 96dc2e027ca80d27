// Package jobsvc implements the asynchronous job execution subsystem the
// Clarens deployments layered on top of the framework (Ali et al.,
// "Resource Management Services for a Grid Analysis Environment"; Thomas
// et al., "JClarens"): authenticated clients submit shell payloads that a
// scheduler runs in the background, monitor their progress, and collect
// results when ready.
//
// The subsystem combines a priority queue, a configurable worker pool and
// per-owner fair-share quotas with durable job state: every lifecycle
// transition (queued → running → done/failed/cancelled, with bounded
// retries) is persisted through db.Store, so the job table survives server
// restarts the same way sessions do. Jobs found in the running state at
// startup were interrupted by a crash and are re-queued while retry budget
// remains, or marked failed otherwise.
//
// Execution is delegated to an Executor — in the assembled server, the
// shell service's sandbox interpreter — and terminal transitions are
// announced to the owner through the store-and-forward messaging service
// and to the monitoring network as clarens.job.* gauges on the server's
// telemetry registry.
package jobsvc

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"clarens/internal/core"
	"clarens/internal/db"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// bucket is the db.Store bucket holding the durable job table. Keys embed
// the zero-padded submission nanos, so a sorted key scan yields jobs in
// submission order.
const bucket = "jobs"

// Job lifecycle states. StateRemote marks a job claimed by the federated
// meta-scheduler for execution on a peer server: it is out of the local
// queue, mirrored locally as a shadow record, and transitions to a
// terminal state when the peer's result is pulled back (or returns to
// StateQueued if the peer dies mid-flight).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateRemote    = "remote"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether state is a final lifecycle state.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Job is one unit of asynchronous work. The whole record is persisted as
// JSON on every state transition.
type Job struct {
	ID       string `json:"id"`
	Owner    string `json:"owner"` // submitting DN, slash form
	Command  string `json:"command"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	// Attempts counts started executions; a job runs at most
	// 1 + MaxRetries times.
	Attempts   int       `json:"attempts"`
	MaxRetries int       `json:"max_retries"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
	// Stdout/Stderr hold only the inline head of each stream (at most
	// OutputLimit bytes) — enough for job.output to stay wire-compatible
	// for small results. When a stream outgrew its head, its per-stream
	// truncated flag is set (Truncated is the aggregate) and the full
	// bytes are on disk as a staged Artifact.
	Stdout          string     `json:"stdout,omitempty"`
	Stderr          string     `json:"stderr,omitempty"`
	Truncated       bool       `json:"truncated,omitempty"`
	StdoutTruncated bool       `json:"stdout_truncated,omitempty"`
	StderrTruncated bool       `json:"stderr_truncated,omitempty"`
	Artifacts       []Artifact `json:"artifacts,omitempty"`
	// Collect carries the sandbox glob patterns whose matches are staged
	// into the artifact tree after a successful attempt.
	Collect   []string `json:"collect,omitempty"`
	ExitCode  int      `json:"exit_code"`
	Error     string   `json:"error,omitempty"`
	LocalUser string   `json:"local_user,omitempty"`
	// Cancel records a cancellation request that recovery and a remote
	// job's fallback honor; a running attempt is stopped at once.
	Cancel bool `json:"cancel,omitempty"`

	// Remote execution binding (federation). Peer names the executing
	// server, RemoteID the job's id there; PeerURL and PeerSession let
	// the submitting server proxy status calls and pull back results.
	// PeerSession is a delegated session for the job's own owner and is
	// never exposed through the RPC surface.
	Peer        string `json:"peer,omitempty"`
	PeerURL     string `json:"peer_url,omitempty"`
	RemoteID    string `json:"remote_id,omitempty"`
	PeerSession string `json:"peer_session,omitempty"`

	// Trace is the trace identifier of the request that submitted the
	// job. It rides every lifecycle log event and every federation call
	// about the job (forwarding, status polls, pull-back), so one job's
	// path across servers correlates under one ID.
	Trace string `json:"trace,omitempty"`
}

// ExecStatus is what an Executor reports about one attempt; the output
// streams themselves go to the writers the scheduler hands it.
type ExecStatus struct {
	ExitCode  int
	LocalUser string
}

// ExecResult is the completed shape of one attempt's outputs: inline
// heads (bounded by OutputLimit), the truncated flag, and staged
// artifact references. The worker assembles it from the attempt's spool;
// the federation pull-back assembles it from a peer's job.output plus
// locally re-staged artifacts.
type ExecResult struct {
	Stdout    string // inline head
	Stderr    string // inline head
	ExitCode  int
	LocalUser string
	// Truncated is the aggregate of the per-stream flags; clients that
	// need to know WHICH stream is incomplete read the specific ones.
	Truncated       bool
	StdoutTruncated bool
	StderrTruncated bool
	Artifacts       []Artifact
}

// Executor runs a job payload on behalf of its owner, streaming stdout
// and stderr into the supplied writers as they are produced — the
// scheduler spools them to per-job artifact files with byte caps, so an
// attempt's output never accumulates in memory. A returned error means
// the attempt could not run at all (as opposed to running with a nonzero
// exit code); both count against the retry budget. It stops when ctx ends.
type Executor func(ctx context.Context, owner pki.DN, command string, stdout, stderr io.Writer) (ExecStatus, error)

// Notifier delivers terminal-state notifications to job owners
// (implemented by messaging.Service).
type Notifier interface {
	Send(from, to pki.DN, subject, body string) (string, error)
}

// Config tunes the scheduler.
type Config struct {
	// Workers sizes the worker pool (default 4).
	Workers int
	// MaxQueue bounds the number of queued jobs (default 1024); submissions
	// beyond it are refused.
	MaxQueue int
	// MaxPerOwner is the fair-share quota: the maximum number of one
	// owner's jobs running concurrently (default 4; negative = unlimited).
	// Jobs over quota stay queued while other owners' work proceeds.
	MaxPerOwner int
	// OutputLimit bounds the inline head of each output stream retained
	// on the job record (default 64 KiB). With artifact staging enabled,
	// streams beyond it live on disk in full (up to SpoolLimit) and
	// job.output carries a reference; without staging this is the old
	// hard truncation point.
	OutputLimit int
	// SpoolLimit bounds the bytes of one output stream (or collected
	// file) spooled to the artifact tree per attempt (default 256 MiB).
	SpoolLimit int64
	// Artifacts, when set, enables result staging: each attempt's
	// stdout/stderr stream to per-job spool files under the stager's
	// namespace, and job records reference them instead of retaining
	// output inline (fileservice.ArtifactStore in the assembled server).
	Artifacts ArtifactStager
	// Collector stages sandbox files matching a job's collect globs into
	// its artifact tree after a successful attempt (wired to the shell
	// service's sandbox at assembly time).
	Collector Collector
	// ArtifactRetention, when positive, garbage-collects the artifact
	// trees of terminal jobs this long after they finish (the records
	// keep their inline heads). Zero keeps artifacts until job.delete.
	ArtifactRetention time.Duration
	// MaxQueuedPerOwner bounds the number of one owner's jobs sitting in
	// the queue, so a single tenant cannot fill MaxQueue and wedge the
	// federation pressure signal for everyone else. Default (0) is
	// MaxQueue/4; negative = unlimited.
	MaxQueuedPerOwner int
	// AgeInterval enables priority aging: a queued job's effective
	// priority rises continuously, by AgeStep per AgeInterval waited, so
	// long-queued low-priority work is no longer starved by a stream of
	// high-priority submissions. Zero disables aging (strict priority).
	AgeInterval time.Duration
	// AgeStep is the priority increment per AgeInterval waited
	// (default 1).
	AgeStep int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxPerOwner == 0 {
		c.MaxPerOwner = 4
	} else if c.MaxPerOwner < 0 {
		c.MaxPerOwner = 0 // unlimited
	}
	if c.OutputLimit <= 0 {
		c.OutputLimit = 64 << 10
	}
	if c.SpoolLimit <= 0 {
		c.SpoolLimit = 256 << 20
	}
	if c.MaxQueuedPerOwner == 0 {
		c.MaxQueuedPerOwner = c.MaxQueue / 4
	} else if c.MaxQueuedPerOwner < 0 {
		c.MaxQueuedPerOwner = 0 // unlimited
	}
	if c.AgeStep <= 0 {
		c.AgeStep = 1
	}
}

// retryLimit caps the per-job max_retries request; gcInterval is the
// artifact retention sweep period.
const (
	retryLimit = 3
	gcInterval = time.Minute
)

// serviceDN identifies the scheduler as the sender of job notifications.
var serviceDN = pki.MustParseDN("/O=clarens/OU=Services/CN=job scheduler")

// queueItem orders the heap: higher key first, FIFO on ties. The key is
// static (see queueKey), so aging needs no periodic re-sort.
type queueItem struct {
	id  string
	key float64
	seq int64 // submission UnixNano
}

type jobHeap []*queueItem

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*queueItem)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// RemoteController proxies operations on jobs executing on a peer server.
// The federated meta-scheduler installs one; without it, remote-state
// jobs only reflect the local shadow record.
type RemoteController interface {
	// Refresh returns a live snapshot of the remote job — state and, once
	// terminal, outputs — merged into the local record's shape. An error
	// means the peer could not be reached; callers fall back to the
	// local mirror.
	Refresh(j *Job) (*Job, error)
	// CancelRemote asks the executing peer to cancel the job. It reports
	// nothing: the job's cancel flag is already set, and a relay that
	// fails is the controller's to log.
	CancelRemote(j *Job)
}

// Service is the job scheduler and its RPC surface.
type Service struct {
	srv     *core.Server
	cfg     Config
	exec    Executor
	notify  Notifier
	stager  ArtifactStager
	collect Collector

	mu           sync.Mutex
	cond         *sync.Cond
	queue        jobHeap
	ownerRunning map[string]int
	ownerQueued  map[string]int
	// count holds, per state, the jobs in it now (queued, running,
	// remote) or moved into it by this process (terminal states). Only
	// move writes it.
	count         map[string]int
	artifactBytes uint64 // cumulative bytes staged into artifact trees
	artifactGC    uint64 // artifact trees garbage-collected
	stopped       bool
	remote        RemoteController

	// Lifecycle telemetry on the server's registry: queue wait
	// (submitted→started), run duration (started→finished), and
	// per-attempt output staging time. The clarens.job.* gauges live
	// there too.
	queueWaitHist *telemetry.Histogram
	runHist       *telemetry.Histogram
	stageHist     *telemetry.Histogram
	// events is the server's request log (nil when disabled); it gets one
	// entry per job state transition, carrying the new state, the job's
	// trace ID and, where one was measured, the transition's duration.
	events *slog.Logger

	// ctx parents every attempt's context; attempts holds each running
	// attempt's cancel func by job ID, under mu.
	ctx      context.Context
	cancel   context.CancelFunc
	attempts map[string]context.CancelFunc
	started  time.Time
	wg       sync.WaitGroup
	stopCh   chan struct{}
}

// New builds the scheduler, recovers the durable job table from the
// server's store, and starts the worker pool. notify may be nil.
func New(srv *core.Server, cfg Config, exec Executor, notify Notifier) (*Service, error) {
	if exec == nil {
		return nil, fmt.Errorf("jobsvc: nil executor")
	}
	cfg.fill()
	s := &Service{
		srv:          srv,
		cfg:          cfg,
		exec:         exec,
		notify:       notify,
		stager:       cfg.Artifacts,
		collect:      cfg.Collector,
		ownerRunning: make(map[string]int),
		ownerQueued:  make(map[string]int),
		count:        make(map[string]int),
		attempts:     make(map[string]context.CancelFunc),
		events:       srv.RequestLog(),
		started:      time.Now(),
		stopCh:       make(chan struct{}),
	}
	reg := srv.Telemetry()
	s.queueWaitHist = reg.Histogram("clarens.job.queue_wait_seconds",
		"Time jobs spend queued before a worker claims them.")
	s.runHist = reg.Histogram("clarens.job.run_seconds",
		"Wall-clock duration of terminal jobs, claim to finish.")
	s.stageHist = reg.Histogram("clarens.job.stage_seconds",
		"Per-attempt output finalization and artifact staging time.")
	for _, g := range []struct {
		name, help string
		value      func(Snapshot) float64
	}{
		{"queued", "jobs waiting in the local queue", func(sn Snapshot) float64 { return float64(sn.Queued) }},
		{"running", "jobs currently executing", func(sn Snapshot) float64 { return float64(sn.Running) }},
		{"remote", "jobs forwarded to peers, awaiting pull-back", func(sn Snapshot) float64 { return float64(sn.Remote) }},
		{"done", "jobs completed successfully", func(sn Snapshot) float64 { return float64(sn.Done) }},
		{"failed", "jobs that exhausted retries", func(sn Snapshot) float64 { return float64(sn.Failed) }},
		{"cancelled", "jobs cancelled by their owner or an admin", func(sn Snapshot) float64 { return float64(sn.Cancelled) }},
		{"workers", "size of the worker pool", func(sn Snapshot) float64 { return float64(sn.Workers) }},
		{"throughput", "terminal jobs per second of uptime", Snapshot.Throughput},
		{"artifact_bytes", "cumulative bytes staged into artifact trees", func(sn Snapshot) float64 { return float64(sn.ArtifactBytes) }},
		{"artifact_gc", "artifact trees garbage-collected", func(sn Snapshot) float64 { return float64(sn.ArtifactGC) }},
	} {
		reg.RegisterGauge("clarens.job."+g.name, g.help, func() float64 { return g.value(s.Stats()) })
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		return nil, err
	}
	srv.RegisterStatsSection("jobs", s.statsSection)
	s.sweepOrphanArtifacts()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.stager != nil && cfg.ArtifactRetention > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// sweepOrphanArtifacts removes artifact trees whose job record is gone —
// leftovers of a crash between tree creation and record persistence, or
// of a record deleted while its Remove failed. Runs once at startup,
// after recovery rebuilt the queue.
func (s *Service) sweepOrphanArtifacts() {
	if s.stager == nil {
		return
	}
	ids, err := s.stager.List()
	if err != nil {
		s.srv.Logger().Printf("jobsvc: artifact orphan sweep: %v", err)
		return
	}
	for _, id := range ids {
		if _, ok := s.Get(id); ok {
			continue
		}
		s.gcArtifacts(id)
	}
}

// gcLoop enforces ArtifactRetention: terminal jobs keep their staged
// trees for the retention window after finishing, then the trees are
// collected and the records drop their references (inline heads stay).
func (s *Service) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(gcInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.gcExpiredArtifacts(time.Now())
		}
	}
}

// gcExpiredArtifacts runs one retention sweep; exposed (with an explicit
// clock) for tests.
func (s *Service) gcExpiredArtifacts(now time.Time) {
	jobs, err := s.List("", "")
	if err != nil {
		return
	}
	cutoff := now.Add(-s.cfg.ArtifactRetention)
	for _, j := range jobs {
		if !Terminal(j.State) || len(j.Artifacts) == 0 || j.Finished.IsZero() || j.Finished.After(cutoff) {
			continue
		}
		// Drop the references under the lock; do the (potentially large)
		// tree removal outside it. A crash in between leaves an orphan
		// tree, which the startup sweep collects.
		s.mu.Lock()
		cur, ok := s.Get(j.ID)
		if !ok || !Terminal(cur.State) || len(cur.Artifacts) == 0 {
			s.mu.Unlock()
			continue
		}
		cur.Artifacts = nil
		if err := s.put(cur); err != nil {
			s.srv.Logger().Printf("jobsvc: persist artifact gc of %s: %v", j.ID, err)
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		s.gcArtifacts(j.ID)
	}
}

// SetRemoteController installs the proxy for jobs executing on peers.
func (s *Service) SetRemoteController(rc RemoteController) {
	s.mu.Lock()
	s.remote = rc
	s.mu.Unlock()
}

func (s *Service) remoteController() RemoteController {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote
}

// queueKey is j's heap key. Aging is continuous: a job that has waited w
// has effective priority Priority + AgeStep·w/AgeInterval, so the gap
// between two queued jobs' effective priorities never changes. Ordering by
// Priority − AgeStep·(Submitted − epoch)/AgeInterval, fixed when the job
// is pushed, is therefore ordering by effective priority at every instant,
// and a requeued retry keeps the age it accrued since submission.
func (s *Service) queueKey(j *Job) float64 {
	key := float64(j.Priority)
	if s.cfg.AgeInterval > 0 {
		key -= float64(s.cfg.AgeStep) * float64(j.Submitted.Sub(s.started)) / float64(s.cfg.AgeInterval)
	}
	return key
}

// release takes one unit of owner's share out of a quota map, dropping
// the entry at zero. Callers hold s.mu.
func release(quota map[string]int, owner string) {
	if n := quota[owner] - 1; n > 0 {
		quota[owner] = n
	} else {
		delete(quota, owner)
	}
}

// recover rebuilds the in-memory queue from the persisted job table.
// Queued jobs re-enter the queue; jobs interrupted mid-run are re-queued
// while retry budget remains, or marked failed (their interrupted attempt
// already counted).
func (s *Service) recover() error {
	return s.srv.Store().ForEach(bucket, func(key string, value []byte) error {
		var j Job
		if err := json.Unmarshal(value, &j); err != nil {
			return fmt.Errorf("jobsvc: corrupt job record %s: %w", key, err)
		}
		switch j.State {
		case StateQueued, StateRemote, StateRunning:
			// The record re-enters occupancy as persisted, which writes
			// nothing and so cannot fail. A remote shadow record stays as it
			// is: a running meta-scheduler re-adopts it on its next watch
			// cycle; assemblies without federation call RequeueAllRemote to
			// pull the work back into the local queue.
			_ = s.move(&j, j.State, 0)
		}
		if j.State != StateRunning {
			return nil
		}
		// The attempt was interrupted by the restart; it already counted.
		to := StateFailed
		switch {
		case j.Cancel:
			to, j.Error = StateCancelled, "cancelled before server restart"
		case j.Attempts <= j.MaxRetries:
			to, j.Error = StateQueued, fmt.Sprintf("attempt %d interrupted by server restart; re-queued", j.Attempts)
		default:
			j.Error = fmt.Sprintf("interrupted by server restart after %d attempts", j.Attempts)
		}
		return s.move(&j, to, 0)
	})
}

// Drain stops the worker pool: workers exit after their current attempt,
// and Drain waits for them until ctx ends, then stops the attempts still
// running. Those persist nothing, so recovery re-queues their jobs on the
// next start. A WAL fsync then makes the queue durable. A failed fsync
// is returned, else ctx.Err() if Drain cut an attempt short.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stopCh)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	// A cut after the workers exit finds no attempt and leaves err alone.
	var err error
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		if len(s.attempts) > 0 {
			err = ctx.Err()
		}
		s.cancel()
		s.mu.Unlock()
	})
	s.wg.Wait()
	stop()
	s.cancel()
	// Every queued/running job record is already in the store (Submit
	// and claim both persist before acting); the checkpoint's job is to
	// force the tail of the WAL onto stable storage (a closed store did).
	if serr := s.srv.Store().Sync(); serr != nil && !errors.Is(serr, db.ErrClosed) {
		err = serr
	}
	return err
}

// newID mints a sortable job identifier embedding the submission time.
func newID(at time.Time) (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return fmt.Sprintf("%020d-%s", at.UnixNano(), hex.EncodeToString(b[:])), nil
}

func (s *Service) put(j *Job) error {
	return s.srv.Store().PutJSON(bucket, j.ID, j)
}

// Get loads a job by id.
func (s *Service) Get(id string) (*Job, bool) {
	var j Job
	found, err := s.srv.Store().GetJSON(bucket, id, &j)
	if err != nil || !found {
		return nil, false
	}
	return &j, true
}

// Submit queues a command for owner and returns the new job. priority
// orders the queue (higher first); maxRetries is clamped to RetryLimit.
// Optional collect globs name sandbox files to stage into the job's
// artifact tree after a successful attempt.
func (s *Service) Submit(owner pki.DN, command string, priority, maxRetries int, collect ...string) (*Job, error) {
	return s.SubmitTraced(owner, "", command, priority, maxRetries, collect...)
}

// SubmitTraced is Submit with the submitting request's trace identifier
// attached to the job record, so lifecycle events and federation calls
// about the job correlate with the RPC that created it.
func (s *Service) SubmitTraced(owner pki.DN, trace, command string, priority, maxRetries int, collect ...string) (*Job, error) {
	if owner.IsZero() {
		return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "job: authentication required"}
	}
	if command == "" {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "job: empty command"}
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	if maxRetries > retryLimit {
		maxRetries = retryLimit
	}
	if len(collect) > maxCollectPatterns {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("job: at most %d collect patterns", maxCollectPatterns)}
	}
	now := time.Now()
	id, err := newID(now)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:         id,
		Owner:      owner.String(),
		Command:    command,
		Priority:   priority,
		MaxRetries: maxRetries,
		Submitted:  now,
		Collect:    collect,
		Trace:      trace,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: "job: scheduler stopped"}
	}
	// Per-owner quota first: one tenant hitting its share is refused with
	// a quota fault while the queue stays open for everyone else (and the
	// queue-depth pressure signal stays meaningful for the federation).
	if q := s.cfg.MaxQueuedPerOwner; q > 0 && s.ownerQueued[j.Owner] >= q {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: owner queue quota reached (%d queued) for %s", q, j.Owner)}
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: queue full (%d jobs)", s.cfg.MaxQueue)}
	}
	if err := s.move(j, StateQueued, 0); err != nil {
		return nil, err
	}
	return j, nil
}

// move is the job state machine's one transition: it takes j, already
// carrying whatever else the caller changed (result, error, peer
// binding), into state to. Callers hold s.mu. In order, move
//
//  1. persists the record with its new state and the start time and
//     attempt count, or finish time, it implies; if the put fails,
//     nothing in memory changes;
//  2. updates occupancy: the per-state count, the owner's running and
//     queued quota, and the heap when the job enters StateQueued (a
//     caller taking a job out of the queue removes its heap entry after
//     move succeeds);
//  3. announces the change once: the histogram the step implies, the
//     owner's notification on terminal states, one job.state event and
//     one lifecycle log entry.
//
// dur is the step's measured duration (queue wait for a start, run time
// for a local attempt's end), zero where none was measured. A record
// already in state to was recovered from the store: it only re-enters
// occupancy.
func (s *Service) move(j *Job, to string, dur time.Duration) error {
	from := j.State
	recovered := from == to
	if recovered {
		from = ""
	} else {
		next := *j
		next.State = to
		switch {
		case to == StateRunning:
			next.Started = time.Now()
			next.Attempts++
		case Terminal(to):
			next.Finished = time.Now()
		}
		if err := s.put(&next); err != nil {
			return err
		}
		*j = next
	}

	switch from {
	case StateQueued:
		release(s.ownerQueued, j.Owner)
	case StateRunning:
		release(s.ownerRunning, j.Owner)
	}
	if from != "" {
		s.count[from]--
	}
	s.count[to]++
	switch to {
	case StateQueued:
		heap.Push(&s.queue, &queueItem{id: j.ID, key: s.queueKey(j), seq: j.Submitted.UnixNano()})
		s.ownerQueued[j.Owner]++
		s.cond.Signal()
	case StateRunning:
		s.ownerRunning[j.Owner]++
	}
	if recovered {
		return nil
	}

	switch {
	case to == StateRunning:
		s.queueWaitHist.Observe(dur)
	case Terminal(to):
		// Only a local attempt's end measures a run; a remote completion
		// or a restart recovery passes zero.
		if dur > 0 {
			s.runHist.Observe(dur)
		}
		s.notifyDone(j)
	}
	s.announce(j, dur)
	return nil
}

// publishArtifact announces a staged artifact reference on the event
// bus, so result consumers can start fetching without polling
// job.output. Callers hold s.mu (publishing never blocks).
func (s *Service) publishArtifact(j *Job, a Artifact) {
	s.srv.Events().Publish(pubsub.Event{
		Type:  "job.artifact",
		Trace: j.Trace,
		Tags: map[string]string{
			"service": "job",
			"job_id":  j.ID,
			"owner":   j.Owner,
			"name":    a.Name,
		},
		Data: map[string]any{
			"path":    a.Path,
			"size":    a.Size,
			"md5":     a.MD5,
			"partial": a.Partial,
		},
	})
}

// announce publishes j's new state on the server's event bus (the push
// plane behind /ws), tagged for query matching and owner scoping and
// carrying the job's trace ID, and writes one lifecycle log entry
// (nil-safe). A local attempt's end (terminal with a measured dur) is
// also linked into the flight recorder. Publishing never blocks, so it is
// safe under s.mu; move is the only caller.
func (s *Service) announce(j *Job, dur time.Duration) {
	tags := map[string]string{
		"service": "job",
		"job_id":  j.ID,
		"owner":   j.Owner,
		"state":   j.State,
	}
	if j.Peer != "" {
		tags["peer"] = j.Peer
	}
	data := map[string]any{
		"command":  j.Command,
		"attempts": j.Attempts,
	}
	if Terminal(j.State) {
		data["exit_code"] = j.ExitCode
		if j.Error != "" {
			data["error"] = j.Error
		}
	}
	if dur > 0 {
		data["dur_s"] = dur.Seconds()
	}
	s.srv.Events().Publish(pubsub.Event{
		Type:  "job.state",
		Trace: j.Trace,
		Tags:  tags,
		Data:  data,
	})
	if st := s.srv.Spans(); st != nil && j.Trace != "" && Terminal(j.State) && dur > 0 {
		// A synthetic span on the job's trace: sampled on its own merits
		// (slow or failed), or appended when the submitting RPC already
		// promoted the trace.
		fault := 0
		if j.State == StateFailed {
			fault = 1
		}
		st.Record(telemetry.Span{
			Trace:    j.Trace,
			Span:     telemetry.NewSpanID(),
			Method:   "job.exec",
			DN:       j.Owner,
			Peer:     j.Peer,
			Start:    time.Now().Add(-dur),
			Duration: dur,
			Fault:    fault,
			Depth:    1,
		}, true, false)
	}
	if s.events == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 6)
	attrs = append(attrs,
		slog.String("job", j.ID),
		slog.String("state", j.State),
		slog.String("owner", j.Owner),
	)
	if j.Trace != "" {
		attrs = append(attrs, slog.String("trace", j.Trace))
	}
	if dur > 0 {
		attrs = append(attrs, slog.Float64("dur_s", dur.Seconds()))
	}
	if j.Peer != "" {
		attrs = append(attrs, slog.String("peer", j.Peer))
	}
	s.events.LogAttrs(context.Background(), slog.LevelInfo, "job", attrs...)
}

// Cancel stops a job: queued jobs become cancelled immediately; running
// jobs are flagged and their attempt is stopped, so they end cancelled;
// remote jobs are flagged locally and the cancellation is relayed to the
// executing peer best-effort (if the peer is unreachable, the flag is
// honored when the job falls back to local execution). The bool reports
// whether anything changed.
func (s *Service) Cancel(id string) (bool, error) {
	s.mu.Lock()
	j, ok := s.Get(id)
	if !ok {
		s.mu.Unlock()
		return false, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: no such job %q", id)}
	}
	switch j.State {
	case StateQueued:
		err := s.move(j, StateCancelled, 0)
		if err == nil {
			// Drop the heap entry eagerly so it stops counting against
			// MaxQueue and the queue-depth gauge.
			for i, it := range s.queue {
				if it.id == j.ID {
					heap.Remove(&s.queue, i)
					break
				}
			}
		}
		s.mu.Unlock()
		return err == nil, err
	case StateRunning, StateRemote:
		j.Cancel = true
		err := s.put(j)
		if stop := s.attempts[j.ID]; stop != nil && err == nil {
			stop()
		}
		rc := s.remote
		s.mu.Unlock()
		if err != nil {
			return false, err
		}
		if j.State == StateRemote && rc != nil && j.RemoteID != "" {
			// Network call outside the lock; failures are fine — the watch
			// loop either pulls back a cancelled result or requeues the job
			// locally, where the flag cancels it.
			rc.CancelRemote(j)
		}
		return true, nil
	default:
		s.mu.Unlock()
		return false, nil
	}
}

// List returns jobs in submission order. owner filters to one DN ("" =
// all); state filters to one lifecycle state ("" = all).
func (s *Service) List(owner, state string) ([]*Job, error) {
	var out []*Job
	err := s.srv.Store().ForEach(bucket, func(key string, value []byte) error {
		var j Job
		if err := json.Unmarshal(value, &j); err != nil {
			return nil // skip corrupt records on the read path
		}
		if owner != "" && j.Owner != owner {
			return nil
		}
		if state != "" && j.State != state {
			return nil
		}
		out = append(out, &j)
		return nil
	})
	return out, err
}

// waitTerminal parks on the job's state events until the job is
// terminal, ctx is done, or the timeout elapses; it returns the latest
// record either way.
func (s *Service) waitTerminal(ctx context.Context, id string, timeout time.Duration) (*Job, error) {
	var j *Job
	ok := false
	s.srv.Events().Await(ctx, "job.wait:"+id, func(ev *pubsub.Event) bool {
		return ev.Type == "job.state" && ev.Tags["job_id"] == id
	}, timeout, func() bool {
		j, ok = s.Get(id)
		return !ok || Terminal(j.State)
	})
	if !ok {
		return nil, fmt.Errorf("jobsvc: no such job %q", id)
	}
	return j, nil
}

// Wait blocks until the job reaches a terminal state or the timeout
// elapses, returning the final record.
func (s *Service) Wait(id string, timeout time.Duration) (*Job, error) {
	j, err := s.waitTerminal(context.Background(), id, timeout)
	if err != nil {
		return nil, err
	}
	if !Terminal(j.State) {
		return j, fmt.Errorf("jobsvc: job %s still %s after %v", id, j.State, timeout)
	}
	return j, nil
}

// --- federation surface: the meta-scheduler claims queued work for
// remote execution and feeds results (or failures) back ---

// ClaimForward removes up to max queued jobs from the local queue — the
// jobs that would run last under the current effective priority order,
// i.e. the work farthest from a local worker — and marks them
// StateRemote, bound to the named peer. Claimed jobs stop counting
// against queue pressure and their owners' queued quotas. The caller is
// expected to follow up with MarkForwarded (submission accepted) or
// RequeueLocal (forwarding failed) for every returned job.
func (s *Service) ClaimForward(max int, peer string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max <= 0 || len(s.queue) == 0 || s.stopped {
		return nil
	}
	// Order a scratch view of the heap by reverse run order: lowest
	// effective priority first, newest submission first within a level.
	scratch := append([]*queueItem(nil), s.queue...)
	sort.Slice(scratch, func(i, j int) bool {
		if scratch[i].key != scratch[j].key {
			return scratch[i].key < scratch[j].key
		}
		return scratch[i].seq > scratch[j].seq
	})
	claimed := make(map[string]bool)
	var out []*Job
	for _, it := range scratch {
		if len(out) >= max {
			break
		}
		j, ok := s.Get(it.id)
		if !ok || j.State != StateQueued {
			claimed[it.id] = true // stale entry: drop it from the heap too
			continue
		}
		j.Peer = peer
		if err := s.move(j, StateRemote, 0); err != nil {
			s.srv.Logger().Printf("jobsvc: persist remote claim of %s: %v", j.ID, err)
			continue
		}
		claimed[it.id] = true
		out = append(out, j)
	}
	if len(claimed) > 0 {
		s.queue = slices.DeleteFunc(s.queue, func(it *queueItem) bool { return claimed[it.id] })
		heap.Init(&s.queue)
	}
	return out
}

// MarkForwarded records the remote binding once a peer accepted the job:
// the peer's RPC URL, the job id it assigned, and the delegated session
// used to submit (which subsequent status/output/cancel proxying reuses).
func (s *Service) MarkForwarded(id, peerURL, remoteID, session string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("jobsvc: no such job %q", id)
	}
	if j.State != StateRemote {
		return fmt.Errorf("jobsvc: job %s is %s, not remote", id, j.State)
	}
	j.PeerURL, j.RemoteID, j.PeerSession = peerURL, remoteID, session
	return s.put(j)
}

// RequeueLocal pulls a remote job back into the local queue — the
// fallback when a peer refuses the submission, rejects the delegation,
// or dies mid-flight. A cancellation requested while the job was remote
// is honored here instead.
func (s *Service) RequeueLocal(id, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("jobsvc: no such job %q", id)
	}
	if j.State != StateRemote {
		return nil // completed or already requeued: nothing to undo
	}
	j.Peer, j.PeerURL, j.RemoteID, j.PeerSession = "", "", "", ""
	j.Error = reason
	if j.Cancel {
		return s.move(j, StateCancelled, 0)
	}
	return s.move(j, StateQueued, 0)
}

// CompleteRemote finalizes a remote job with the result pulled back from
// the executing peer. state must be a terminal state as reported by the
// peer's job.status. A cancellation acknowledged while the job was
// remote wins over a successful remote completion, mirroring how finish
// resolves a cancel flag raced by a local attempt.
func (s *Service) CompleteRemote(id, state string, res ExecResult, errMsg string) error {
	if !Terminal(state) {
		return fmt.Errorf("jobsvc: CompleteRemote with non-terminal state %q", state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("jobsvc: no such job %q", id)
	}
	if j.State != StateRemote {
		return fmt.Errorf("jobsvc: job %s is %s, not remote", id, j.State)
	}
	if j.Cancel && state != StateCancelled {
		state = StateCancelled
		if errMsg == "" {
			errMsg = fmt.Sprintf("cancelled; peer %s had already completed the attempt", j.Peer)
		}
	}
	s.applyResult(j, res)
	j.Error = errMsg
	return s.move(j, state, 0)
}

// RemoteJobs returns the jobs currently bound to peers (shadow records
// in StateRemote), for the meta-scheduler's watch loop.
func (s *Service) RemoteJobs() []*Job {
	jobs, _ := s.List("", StateRemote)
	return jobs
}

// RequeueAllRemote returns every remote job to the local queue; called at
// startup by assemblies that recovered remote shadow records but run with
// federation disabled, so no forwarded work is stranded.
func (s *Service) RequeueAllRemote() int {
	n := 0
	for _, j := range s.RemoteJobs() {
		if s.RequeueLocal(j.ID, "federation disabled; re-queued locally") == nil {
			n++
		}
	}
	return n
}

// next blocks until a runnable job is available, claims it (marking it
// running and charging the owner's quota), and returns it with its
// attempt's context. It returns nil when the scheduler stops.
func (s *Service) next() (*Job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, nil
		}
		var skipped []*queueItem
		var picked *Job
		var pickedItem *queueItem
		for len(s.queue) > 0 {
			it := heap.Pop(&s.queue).(*queueItem)
			j, ok := s.Get(it.id)
			if !ok || j.State != StateQueued {
				continue // vanished while queued
			}
			if s.cfg.MaxPerOwner > 0 && s.ownerRunning[j.Owner] >= s.cfg.MaxPerOwner {
				skipped = append(skipped, it)
				continue
			}
			picked, pickedItem = j, it
			break
		}
		for _, it := range skipped {
			heap.Push(&s.queue, it)
		}
		if picked != nil {
			if err := s.move(picked, StateRunning, time.Since(picked.Submitted)); err != nil {
				// Persisting the claim failed (store closed mid-shutdown,
				// or a transient disk error): push the job back so it is
				// not stranded, and park rather than kill the worker.
				heap.Push(&s.queue, pickedItem)
				if s.stopped {
					return nil, nil
				}
				s.srv.Logger().Printf("jobsvc: persist claim of %s: %v", picked.ID, err)
				s.cond.Wait()
				continue
			}
			ctx, cancel := context.WithCancel(s.ctx)
			s.attempts[picked.ID] = cancel
			return picked, ctx
		}
		s.cond.Wait()
	}
}

// maxCollectPatterns bounds the per-job collect glob list.
const maxCollectPatterns = 32

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ctx := s.next()
		if j == nil {
			return
		}
		res, err := s.runAttempt(ctx, j)
		s.finish(j, res, err)
	}
}

// runAttempt executes one attempt with its output spooled: stdout/stderr
// stream to the job's artifact files (or head-only buffers without a
// stager) and the finalized ExecResult carries heads + artifact refs.
func (s *Service) runAttempt(ctx context.Context, j *Job) (ExecResult, error) {
	owner, err := pki.ParseDN(j.Owner)
	if err != nil {
		return ExecResult{}, err
	}
	sp := s.newSpool(j, owner)
	status, execErr := s.exec(ctx, owner, j.Command, sp.stdout, sp.stderr)
	stageStart := time.Now()
	res := s.finalize(j, owner, sp, status, execErr)
	s.stageHist.Observe(time.Since(stageStart))
	return res, execErr
}

// clampHead bounds an inline head to n bytes (results arriving from
// peers may have been captured under a larger OutputLimit).
func clampHead(s string, n int) (string, bool) {
	if len(s) > n {
		return s[:n], true
	}
	return s, false
}

// applyResult folds an attempt's outputs into the record: inline heads
// clamped to OutputLimit, the truncated flag, artifact references.
// Callers hold s.mu.
func (s *Service) applyResult(j *Job, res ExecResult) {
	var outClamped, errClamped bool
	j.Stdout, outClamped = clampHead(res.Stdout, s.cfg.OutputLimit)
	j.Stderr, errClamped = clampHead(res.Stderr, s.cfg.OutputLimit)
	j.StdoutTruncated = res.StdoutTruncated || outClamped
	j.StderrTruncated = res.StderrTruncated || errClamped
	j.Truncated = res.Truncated || j.StdoutTruncated || j.StderrTruncated
	j.Artifacts = res.Artifacts
	j.ExitCode = res.ExitCode
	j.LocalUser = res.LocalUser
	for _, a := range j.Artifacts {
		s.publishArtifact(j, a)
	}
}

// Delete removes a terminal job record together with its staged artifact
// tree. Running, queued, and remote jobs must be cancelled first.
func (s *Service) Delete(id string) error {
	s.mu.Lock()
	j, ok := s.Get(id)
	if !ok {
		s.mu.Unlock()
		return &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: no such job %q", id)}
	}
	if !Terminal(j.State) {
		s.mu.Unlock()
		return &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: job %s is %s; cancel it before deleting", id, j.State)}
	}
	err := s.srv.Store().Delete(bucket, id)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Tree removal happens off the dispatch mutex; a crash here leaves an
	// orphan tree the startup sweep collects.
	if len(j.Artifacts) > 0 {
		s.gcArtifacts(id)
	} else if s.stager != nil {
		// No references, but a tree may exist (partial stage): best effort.
		s.stager.Remove(id)
	}
	return nil
}

// finish records the attempt outcome: success → done; failure → requeue
// while retry budget remains, else failed; a cancel request observed
// mid-run wins over retries. An attempt Drain cut short records nothing.
func (s *Service) finish(j *Job, res ExecResult, execErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts[j.ID]()
	delete(s.attempts, j.ID)
	if s.ctx.Err() != nil {
		return
	}
	// Re-read for a cancel flag set while the attempt ran.
	if cur, ok := s.Get(j.ID); ok {
		j.Cancel = cur.Cancel
	}
	s.applyResult(j, res)
	j.Error = ""
	if execErr != nil {
		j.Error = execErr.Error()
		j.ExitCode = -1
	}

	failed := execErr != nil || res.ExitCode != 0
	to, run := StateFailed, time.Since(j.Started)
	switch {
	case j.Cancel:
		to = StateCancelled
	case !failed:
		to = StateDone
	case j.Attempts <= j.MaxRetries:
		// A retry's event carries no run time. The next attempt's spool
		// setup empties the artifact tree, so references from this failed
		// attempt must not linger on a queued record where clients could
		// fetch soon-to-vanish files.
		to, run = StateQueued, 0
		j.Artifacts = nil
	}
	if err := s.move(j, to, run); err != nil {
		// The durable record still says "running"; after a restart the
		// job would re-run. Surface the inconsistency in the log and free
		// the owner's slot — there is no better recovery without a
		// working store.
		s.srv.Logger().Printf("jobsvc: persist %s state of %s: %v", to, j.ID, err)
		release(s.ownerRunning, j.Owner)
	}
	// A finished job frees quota; wake workers parked on fair share.
	s.cond.Broadcast()
}

// notifyDone announces a terminal transition to the owner's message queue.
// move is the only caller; messaging only touches the store, never jobsvc.
func (s *Service) notifyDone(j *Job) {
	if s.notify == nil {
		return
	}
	owner, err := pki.ParseDN(j.Owner)
	if err != nil {
		return
	}
	body, _ := json.Marshal(map[string]any{
		"id":        j.ID,
		"state":     j.State,
		"exit_code": j.ExitCode,
		"command":   j.Command,
		"error":     j.Error,
	})
	s.notify.Send(serviceDN, owner, "job."+j.State, string(body))
}

// Snapshot reports the scheduler counters.
type Snapshot struct {
	Queued        int
	Running       int
	Remote        int // jobs forwarded to peers, awaiting pull-back
	Done          uint64
	Failed        uint64
	Cancelled     uint64
	Workers       int
	Uptime        time.Duration
	ArtifactBytes uint64 // cumulative bytes staged into artifact trees
	ArtifactGC    uint64 // artifact trees garbage-collected
}

// Throughput is completed jobs (any terminal state) per second of uptime.
func (sn Snapshot) Throughput() float64 {
	secs := sn.Uptime.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(sn.Done+sn.Failed+sn.Cancelled) / secs
}

// Stats returns the live counters.
func (s *Service) Stats() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Queued:        len(s.queue),
		Running:       s.count[StateRunning],
		Remote:        s.count[StateRemote],
		Done:          uint64(s.count[StateDone]),
		Failed:        uint64(s.count[StateFailed]),
		Cancelled:     uint64(s.count[StateCancelled]),
		Workers:       s.cfg.Workers,
		Uptime:        time.Since(s.started),
		ArtifactBytes: s.artifactBytes,
		ArtifactGC:    s.artifactGC,
	}
}

// --- RPC surface ---

// Name implements core.Service.
func (s *Service) Name() string { return "job" }

// Methods implements core.Service. All methods require authentication;
// status/list/cancel/output are owner-only with a server-admin override.
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name: "job.submit",
			Help: "Queue a sandboxed command for asynchronous execution: submit(command, [priority], [max_retries], [collect_globs]); returns the job id. collect_globs name sandbox files to stage as artifacts after a successful run.",
			Func: core.Func4(s.rpcSubmit),
		},
		{
			Name: "job.status",
			Help: "Return a job's full status record by id (owner or server admin only).",
			Func: core.Func1(s.rpcStatus),
		},
		{
			Name: "job.list",
			Help: "List the caller's jobs, oldest first; optional state filter (queued|running|done|failed|cancelled). Server admins see all jobs.",
			Func: core.Func1(s.rpcList),
		},
		{
			Name: "job.cancel",
			Help: "Cancel a job: queued jobs stop immediately, running jobs when the current attempt returns, remote jobs on the executing peer. Returns whether anything changed.",
			Func: core.Func1(s.rpcCancel),
		},
		{
			Name: "job.output",
			Help: "Return {stdout, stderr, exit_code, state, truncated, artifacts} for a job (owner or server admin only). stdout/stderr are bounded heads; when truncated, the artifacts array references the full streams for file.read / HTTP GET fetching. Jobs executing on a federation peer are proxied transparently.",
			Func: core.Func1(s.rpcOutput),
		},
		{
			Name: "job.delete",
			Help: "Delete a terminal job record and its staged artifacts (owner or server admin only); returns true.",
			Func: core.Func1(s.rpcDelete),
		},
		{
			Name: "job.wait",
			Help: "Block until a job reaches a terminal state or timeout_s elapses (default 30, max 600); returns the status record: wait(id, [timeout_s]).",
			Func: core.Func2(s.rpcWait),
		},
		{
			Name:   "job.stats",
			Help:   "Scheduler counters: queue depth, running, remote, terminal counts, workers, throughput. Public so federation peers can poll load.",
			Public: true,
			Func:   core.Func0(s.rpcStats),
		},
	}
}

// authorized loads a job and enforces owner-only access with the
// server-admin override.
func (s *Service) authorized(ctx *core.Context, id string) (*Job, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return nil, err
	}
	j, ok := s.Get(id)
	if !ok {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: no such job %q", id)}
	}
	if j.Owner != ctx.DN.String() {
		if err := ctx.RequireServerAdmin(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

func jobStruct(j *Job) map[string]any {
	m := map[string]any{
		"id":          j.ID,
		"owner":       j.Owner,
		"command":     j.Command,
		"priority":    j.Priority,
		"state":       j.State,
		"attempts":    j.Attempts,
		"max_retries": j.MaxRetries,
		"exit_code":   j.ExitCode,
		"submitted":   j.Submitted.UTC(),
	}
	if !j.Started.IsZero() {
		m["started"] = j.Started.UTC()
	}
	if !j.Finished.IsZero() {
		m["finished"] = j.Finished.UTC()
	}
	if j.Error != "" {
		m["error"] = j.Error
	}
	if j.LocalUser != "" {
		m["local_user"] = j.LocalUser
	}
	if j.Peer != "" {
		m["peer"] = j.Peer
	}
	if j.RemoteID != "" {
		m["remote_id"] = j.RemoteID
	}
	if j.Truncated {
		m["truncated"] = true
	}
	if len(j.Artifacts) > 0 {
		m["artifacts"] = artifactList(j.Artifacts)
	}
	return m
}

func artifactList(arts []Artifact) []any {
	out := make([]any, len(arts))
	for i, a := range arts {
		m := map[string]any{
			"name": a.Name,
			"path": a.Path,
			"size": int(a.Size),
			"md5":  a.MD5,
		}
		if a.Partial {
			m["partial"] = true
		}
		out[i] = m
	}
	return out
}

// ParseOutput decodes a job.output reply, the inverse of rpcOutput: the
// inline heads, exit code, truncation flags and artifact references, and
// the job's state. A member that is absent or of the wrong type reads as
// its zero value.
func ParseOutput(m map[string]any) (res ExecResult, state string) {
	res = ExecResult{
		Stdout:          field[string](m, "stdout"),
		Stderr:          field[string](m, "stderr"),
		ExitCode:        field[int](m, "exit_code"),
		Truncated:       field[bool](m, "truncated"),
		StdoutTruncated: field[bool](m, "stdout_truncated"),
		StderrTruncated: field[bool](m, "stderr_truncated"),
	}
	for _, e := range field[[]any](m, "artifacts") {
		if am, ok := e.(map[string]any); ok {
			res.Artifacts = append(res.Artifacts, Artifact{
				Name:    field[string](am, "name"),
				Path:    field[string](am, "path"),
				Size:    int64(field[int](am, "size")),
				MD5:     field[string](am, "md5"),
				Partial: field[bool](am, "partial"),
			})
		}
	}
	return res, field[string](m, "state")
}

// field reads member key of a decoded struct under rpc.As.
func field[T any](m map[string]any, key string) T {
	v, _ := rpc.As[T](m[key])
	return v
}

// liveRemote returns the freshest view of j: for remote jobs with an
// installed controller, a live snapshot from the executing peer; the
// local shadow record otherwise (including when the peer is unreachable
// — the watch loop handles fallback, the read path must not block on it).
func (s *Service) liveRemote(j *Job) *Job {
	if j.State != StateRemote || j.RemoteID == "" {
		return j
	}
	rc := s.remoteController()
	if rc == nil {
		return j
	}
	if live, err := rc.Refresh(j); err == nil && live != nil {
		return live
	}
	return j
}

func (s *Service) rpcSubmit(ctx *core.Context, command string, priority, retries core.Opt[int], collect core.Opt[[]string]) (string, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return "", err
	}
	j, err := s.SubmitTraced(ctx.DN, ctx.TraceID(), command, priority.Or(0), retries.Or(0), collect.Or(nil)...)
	if err != nil {
		return "", err
	}
	return j.ID, nil
}

func (s *Service) rpcStatus(ctx *core.Context, id string) (map[string]any, error) {
	j, err := s.authorized(ctx, id)
	if err != nil {
		return nil, err
	}
	return jobStruct(s.liveRemote(j)), nil
}

func (s *Service) rpcWait(ctx *core.Context, id string, timeoutArg core.Opt[int]) (map[string]any, error) {
	timeoutS := min(max(timeoutArg.Or(30), 1), 600)
	if _, err := s.authorized(ctx, id); err != nil {
		return nil, err
	}
	j, err := s.waitTerminal(ctx, id, time.Duration(timeoutS)*time.Second)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("job: job %q vanished", id)}
	}
	return jobStruct(s.liveRemote(j)), nil
}

func (s *Service) rpcList(ctx *core.Context, state core.Opt[string]) ([]any, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return nil, err
	}
	owner := ctx.DN.String()
	if s.srv.VO().IsServerAdmin(ctx.DN) {
		owner = "" // admins see the whole table
	}
	jobs, err := s.List(owner, state.Or(""))
	if err != nil {
		return nil, err
	}
	out := make([]any, len(jobs))
	for i, j := range jobs {
		out[i] = jobStruct(j)
	}
	return out, nil
}

func (s *Service) rpcCancel(ctx *core.Context, id string) (bool, error) {
	if _, err := s.authorized(ctx, id); err != nil {
		return false, err
	}
	return s.Cancel(id)
}

func (s *Service) rpcOutput(ctx *core.Context, id string) (map[string]any, error) {
	j, err := s.authorized(ctx, id)
	if err != nil {
		return nil, err
	}
	j = s.liveRemote(j)
	return map[string]any{
		"stdout":           j.Stdout,
		"stderr":           j.Stderr,
		"exit_code":        j.ExitCode,
		"state":            j.State,
		"truncated":        j.Truncated,
		"stdout_truncated": j.StdoutTruncated,
		"stderr_truncated": j.StderrTruncated,
		"artifacts":        artifactList(j.Artifacts),
	}, nil
}

func (s *Service) rpcDelete(ctx *core.Context, id string) (bool, error) {
	if _, err := s.authorized(ctx, id); err != nil {
		return false, err
	}
	return true, s.Delete(id)
}

func (s *Service) rpcStats(*core.Context) (map[string]any, error) {
	return s.statsSection(), nil
}

// statsSection renders the scheduler counters, as job.stats returns them
// and as the server's system.stats carries them under "jobs".
func (s *Service) statsSection() map[string]any {
	sn := s.Stats()
	return map[string]any{
		"queued":           sn.Queued,
		"running":          sn.Running,
		"remote":           sn.Remote,
		"done":             int(sn.Done),
		"failed":           int(sn.Failed),
		"cancelled":        int(sn.Cancelled),
		"workers":          sn.Workers,
		"uptime_s":         int(sn.Uptime.Seconds()),
		"throughput_per_s": sn.Throughput(),
		"artifact_bytes":   int(sn.ArtifactBytes),
		"artifact_gc":      int(sn.ArtifactGC),
	}
}

var _ core.Service = (*Service)(nil)
