// Package metasched implements a federated meta-scheduler over the
// Clarens job service: every server is simultaneously client and server
// (cs/0306002), and a local scheduler under queue pressure forwards work
// to underloaded peers discovered at runtime — the resource-management
// pattern of the GAE papers (cs/0504033).
//
// The scheduler runs one control loop per server. Each cycle it
//
//  1. refreshes the peer table from the discovery cache (peers advertise
//     their job service through the station network; records expire on
//     their TTL and vanish when not republished),
//  2. polls every peer's job.stats for queue depth, running count, and
//     worker-pool size, scoring peers by free capacity,
//  3. watches jobs previously forwarded, grouped by peer and delegated
//     session: a group with a live push subscription to the peer's job
//     events is status-polled for the jobs whose terminal event arrived
//     and a slow safety sweep, a group without one is polled in full;
//     terminal results are pulled back into the local shadow record, and
//     jobs whose peer stopped answering for DeadPolls consecutive cycles
//     fall back into the local queue,
//  4. when the local queue exceeds the pressure threshold, claims the
//     jobs farthest from a local worker and forwards them to the
//     least-loaded peers, batched per owner over system.multicall.
//
// Identity travels with the work: before forwarding an owner's jobs the
// scheduler mints a one-time delegation secret from the local proxy
// service and redeems it on the peer via proxy.login_delegated, so the
// remote job.submit executes under a session for the submitting DN — the
// peer sees the real owner, applies its own quotas and user mapping, and
// the owner's job.status/job.output on the submitting server proxy to the
// executing peer transparently.
//
// Every round trip to a peer is one exchange through the peer's circuit
// breaker and cached connection. A fault answer means the peer is alive;
// a transport failure or a malformed reply counts once against the
// breaker and drops the connection, so the next exchange re-dials.
//
// Fallback is at-least-once, not exactly-once: a peer that was merely
// partitioned (rather than dead) may still be running a job the
// scheduler reclaimed after DeadPolls failed polls, so a payload can
// execute twice in that window — payloads should be idempotent or guard
// externally. The scheduler narrows the window by remembering the
// orphaned (peer, remote id, session) binding and best-effort cancelling
// the remote copy once the peer answers again.
package metasched

import (
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"sort"
	"sync"
	"time"

	"clarens/internal/discovery"
	"clarens/internal/jobsvc"
	"clarens/internal/pki"
	"clarens/internal/proxysvc"
	"clarens/internal/pubsub"
	"clarens/internal/resilience"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// Call is one sub-call in a batched peer request. Trace optionally
// carries the originating request's trace identifier, so a batched
// forward keeps each job on its own trace on the peer; Sample marks the
// trace force-sampled, keeping it in the peer's flight recorder too.
type Call struct {
	Method string
	Params []any
	Trace  string
	Sample bool
}

// Result is one sub-call outcome from a batched peer request.
type Result struct {
	Value any
	Err   error
}

// Conn is a client connection to one peer server. Implementations carry
// the session token per call so one connection serves many identities
// (the public clarens.Client is adapted to this at assembly time).
type Conn interface {
	// Call invokes one method under the given session token ("" =
	// anonymous), stamping the outbound request with trace when non-empty
	// so the peer's logs correlate with the originating request.
	Call(token, trace, method string, params ...any) (any, error)
	// Batch executes sub-calls in a single system.multicall round trip
	// under token; per-call faults come back in each Result.
	Batch(token string, calls []Call) ([]Result, error)
	Close()
}

// Dialer opens a Conn to a peer RPC endpoint URL.
type Dialer func(url string) (Conn, error)

// EventStream is a live push subscription to a peer's event bus; the
// channel closes when the subscription is torn down.
type EventStream interface {
	Events() <-chan pubsub.Event
	Close() error
}

// EventDialer opens a push subscription to the /ws endpoint of the
// server at rpcURL, authenticated by the delegated session token and
// filtered by query. An error means the peer has no push plane (no /ws
// endpoint, or the dial failed): the group the stream was for is polled
// in full every cycle, and the dial is retried after a backoff of 30 poll
// intervals (at least 5s).
type EventDialer func(rpcURL, token, query string) (EventStream, error)

// PeerSource lists live peer job services (implemented by
// discovery.Service).
type PeerSource interface {
	PeersFor(service, excludeServer string) []discovery.Entry
}

// Delegator mints one-time delegation secrets (implemented by
// proxysvc.Service).
type Delegator interface {
	IssueDelegation(dn pki.DN, ttl time.Duration) (string, error)
}

// Config tunes the meta-scheduler.
type Config struct {
	// ServerName is the local server's discovery name; its own entries
	// are excluded from the peer table.
	ServerName string
	// SelfURL returns the URL peers should call back to verify
	// delegations (the local RPC endpoint; a func because the listen
	// address is only known after Start).
	SelfURL func() string
	// Pressure is the local queued-job depth above which forwarding
	// starts (default 8; negative = forward whenever a peer is idle).
	Pressure int
	// PollInterval is the control-loop period: peer load polls, remote
	// watches, and forwarding decisions all run on it (default 2s).
	PollInterval time.Duration
	// DeadPolls is how many consecutive failed remote-watch polls a
	// forwarded job tolerates before falling back to the local queue
	// (default 3).
	DeadPolls int
	// Breaker tunes the per-peer circuit breakers: transport failures
	// trip a peer's breaker, a failed forward or delegation handoff
	// force-opens it, and while open the peer is skipped by forwarding
	// and polled only by the half-open recovery probe. A zero OpenFor
	// defaults to 5x PollInterval.
	Breaker resilience.BreakerConfig
	// Telemetry, when set, exports the per-peer breaker states
	// (clarens.federation.breaker.<peer>: 0 closed, 0.5 half-open,
	// 1 open) and the open-breaker count on /metrics.
	Telemetry *telemetry.Registry
	// Spans, when set, records forward edges into the flight recorder
	// (which peer each trace was forwarded to — the fan-out map federated
	// trace assembly follows) and propagates the force-sample bit of
	// sampled traces onto the batched peer calls.
	Spans *telemetry.SpanStore
	// EventDial, when set, lets the watch loop subscribe to peer job
	// events over /ws, one stream per group of jobs sharing a peer and a
	// delegated session. A group whose stream is live is polled in full
	// when the stream starts or reports a gap, and otherwise only for the
	// jobs whose terminal event arrived plus those not polled for 15 poll
	// intervals (at least 2s). A group with no stream is polled in full
	// every cycle. Nil means no group ever has a stream.
	EventDial EventDialer
}

// maxForward caps the jobs forwarded to one peer in one cycle.
const maxForward = 16

func (c *Config) fill() {
	if c.Pressure == 0 {
		c.Pressure = 8
	} else if c.Pressure < 0 {
		c.Pressure = 0
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.DeadPolls <= 0 {
		c.DeadPolls = 3
	}
	if c.Breaker.OpenFor <= 0 {
		c.Breaker.OpenFor = 5 * c.PollInterval
	}
}

// peer is one row of the scored peer table. Health beyond the last
// poll's alive bit lives in the scheduler's per-peer breaker (keyed by
// URL), not here.
type peer struct {
	name    string
	url     string
	queued  int
	running int
	workers int
	alive   bool // last job.stats poll succeeded
	expires time.Time
}

// free is the peer's uncommitted worker capacity — the number of jobs it
// could start immediately.
func (p *peer) free() int {
	n := p.workers - p.running - p.queued
	if n < 0 {
		return 0
	}
	return n
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	Peers         int    // live peers in the table
	Forwarded     uint64 // jobs accepted by peers
	PulledBack    uint64 // remote results finalized locally
	Fallbacks     uint64 // jobs returned to the local queue after a failure
	ArtifactBytes uint64 // artifact bytes fetched from peers and re-staged
	StatusRPCs    uint64 // job.status calls issued by the watch loop
	PushEvents    uint64 // peer job events received over push subscriptions
	PushWatches   int    // live peer push subscriptions
	BreakerOpen   int    // peers whose circuit breaker is currently open
}

// counters is the one table behind both views of Stats: the
// clarens.federation.<key> gauges and the "federation" section of
// system.stats.
var counters = []struct {
	key, help string
	value     func(Stats) int
}{
	{"peers", "live job-service peers in the federation table", func(st Stats) int { return st.Peers }},
	{"forwarded", "jobs accepted by peers", func(st Stats) int { return int(st.Forwarded) }},
	{"pulled_back", "remote results finalized locally", func(st Stats) int { return int(st.PulledBack) }},
	{"fallbacks", "jobs returned to the local queue after a peer failure", func(st Stats) int { return int(st.Fallbacks) }},
	{"artifact_bytes", "artifact bytes fetched from peers and re-staged", func(st Stats) int { return int(st.ArtifactBytes) }},
	{"status_rpcs", "job.status calls issued by the remote watch loop", func(st Stats) int { return int(st.StatusRPCs) }},
	{"push_events", "peer job events received over push subscriptions", func(st Stats) int { return int(st.PushEvents) }},
	{"push_watches", "live peer push subscriptions", func(st Stats) int { return st.PushWatches }},
	{"breaker_open", "peers whose circuit breaker is currently open", func(st Stats) int { return st.BreakerOpen }},
}

// StatsSection returns the counters as the "federation" section of
// system.stats.
func (s *Scheduler) StatsSection() map[string]any {
	st := s.Stats()
	out := make(map[string]any, len(counters))
	for _, c := range counters {
		out[c.key] = c.value(st)
	}
	return out
}

// Scheduler is the per-server federated meta-scheduler.
type Scheduler struct {
	jobs     *jobsvc.Service
	peers    PeerSource
	deleg    Delegator
	dial     Dialer
	logger   *log.Logger
	cfg      Config
	breakers *resilience.Group // per-peer circuit breakers, keyed by endpoint URL
	cycleMu  sync.Mutex        // serializes cycles (ticker loop vs. Kick)

	mu       sync.Mutex
	table    map[string]*peer        // peer name -> scored row
	conns    map[string]Conn         // endpoint URL -> connection
	sessions map[sessionKey]string   // delegated session per peer and owner
	orphans  map[string][]orphan     // endpoint URL -> reclaimed remote copies to cancel
	watches  map[watchKey]*peerWatch // one record per group of forwarded jobs
	watched  map[string]jobWatch     // local job id -> watch state of a forwarded job
	gauged   map[string]bool         // peer names with a registered breaker gauge
	stats    Stats

	wakeCh  chan struct{} // push events nudge the loop to run a cycle now
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// sessionKey names the delegated session acting as owner on a peer.
type sessionKey struct{ peer, owner string }

// watchKey identifies one group of forwarded jobs: the peer endpoint
// plus the delegated session they were submitted under. A group has one
// push subscription at most, since the peer's owner scoping admits
// exactly that owner's job events.
type watchKey struct{ url, token string }

// peerWatch is the watch record of one group. It exists whether or not
// a push subscription is live.
type peerWatch struct {
	mu     sync.Mutex
	stream EventStream     // live push subscription; nil when none
	ready  map[string]bool // remote job ids with an unconsumed terminal event
	resync bool            // events may have been missed: poll the whole group
	dialAt time.Time       // no push dial before this, after one failed
}

// jobWatch is the watch state of one forwarded job.
type jobWatch struct {
	fails  int       // consecutive failed status polls
	polled time.Time // last status poll the peer answered
}

// New builds a scheduler and installs it as the job service's remote
// controller, so job.status/job.output/job.cancel proxy to executing
// peers. Call Start to begin the control loop.
func New(jobs *jobsvc.Service, peers PeerSource, deleg Delegator, dial Dialer, logger *log.Logger, cfg Config) (*Scheduler, error) {
	if jobs == nil || peers == nil || deleg == nil || dial == nil {
		return nil, fmt.Errorf("metasched: jobs, peers, delegator, and dialer are all required")
	}
	cfg.fill()
	if cfg.SelfURL == nil {
		return nil, fmt.Errorf("metasched: SelfURL is required (peers verify delegations against it)")
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Scheduler{
		jobs:     jobs,
		peers:    peers,
		deleg:    deleg,
		dial:     dial,
		logger:   logger,
		cfg:      cfg,
		breakers: resilience.NewGroup(cfg.Breaker),
		table:    make(map[string]*peer),
		conns:    make(map[string]Conn),
		sessions: make(map[sessionKey]string),
		orphans:  make(map[string][]orphan),
		watches:  make(map[watchKey]*peerWatch),
		watched:  make(map[string]jobWatch),
		gauged:   make(map[string]bool),
		wakeCh:   make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		for _, c := range counters {
			cfg.Telemetry.RegisterGauge("clarens.federation."+c.key, c.help,
				func() float64 { return float64(c.value(s.Stats())) })
		}
	}
	jobs.SetRemoteController(s)
	return s, nil
}

// registerBreakerGauge exports one peer's breaker state on /metrics the
// first time the peer is seen: 0 closed, 0.5 half-open, 1 open. Called
// with s.mu held.
func (s *Scheduler) registerBreakerGauge(name string) {
	if s.cfg.Telemetry == nil || s.gauged[name] {
		return
	}
	s.gauged[name] = true
	s.cfg.Telemetry.RegisterGauge("clarens.federation.breaker."+name,
		"Circuit breaker state for peer "+name+" (0 closed, 0.5 half-open, 1 open).",
		func() float64 {
			s.mu.Lock()
			p, ok := s.table[name]
			if !ok {
				s.mu.Unlock()
				return 0
			}
			url := p.url
			s.mu.Unlock()
			return map[resilience.State]float64{resilience.Open: 1, resilience.HalfOpen: 0.5}[s.breakers.State(url)]
		})
}

// Start launches the control loop.
func (s *Scheduler) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Stop halts the control loop and closes peer connections. Forwarded
// jobs keep their shadow records; a later Start (or restart) re-adopts
// them.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stopCh)
	watches := s.watches
	s.watches = make(map[watchKey]*peerWatch)
	s.mu.Unlock()
	// Close push streams first so their runWatch goroutines unblock and
	// the wg.Wait below can finish.
	for _, w := range watches {
		w.end(nil)
	}
	s.wg.Wait()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = make(map[string]Conn)
	s.mu.Unlock()
}

// Stats returns the live counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Peers = 0
	for _, p := range s.table {
		if p.alive {
			st.Peers++
		}
	}
	st.PushWatches = 0
	for _, w := range s.watches {
		w.mu.Lock()
		if w.stream != nil {
			st.PushWatches++
		}
		w.mu.Unlock()
	}
	st.BreakerOpen = s.breakers.OpenCount()
	return st
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.Kick()
		case <-s.wakeCh:
			// A push event (usually a terminal state) arrived: react now
			// instead of waiting out the poll interval.
			s.Kick()
		}
	}
}

// wake nudges the control loop to run a cycle as soon as possible.
func (s *Scheduler) wake() {
	select {
	case s.wakeCh <- struct{}{}:
	default:
	}
}

// Kick runs one full control cycle synchronously: refresh peers, poll
// load, watch forwarded jobs, forward under pressure. Exposed so tests
// (and operators via examples) can drive the scheduler deterministically.
func (s *Scheduler) Kick() {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	s.refreshPeers()
	s.pollPeers()
	s.reapOrphans()
	s.watchRemote()
	s.forward()
}

// conn returns (dialing if needed) the connection for an endpoint URL.
func (s *Scheduler) conn(url string) (Conn, error) {
	s.mu.Lock()
	c, ok := s.conns[url]
	s.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := s.dial(url)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if existing, ok := s.conns[url]; ok {
		s.mu.Unlock()
		c.Close()
		return existing, nil
	}
	s.conns[url] = c
	s.mu.Unlock()
	return c, nil
}

// exchange runs one round trip to the peer at url through its circuit
// breaker and cached connection. A nil error or an RPC fault from fn
// means the peer answered: the breaker records a success and the
// connection stays. Any other error from fn — a transport failure or a
// malformed reply — counts against the breaker and drops the connection
// so the next exchange re-dials. A breaker refusal or a failed dial is
// returned without calling fn.
func (s *Scheduler) exchange(url string, fn func(Conn) error) error {
	done, err := s.breakers.Allow(url)
	if err != nil {
		return err
	}
	c, err := s.conn(url)
	if err != nil {
		done(false)
		return err
	}
	err = fn(c)
	answered := err == nil || isFault(err)
	done(answered)
	if !answered {
		s.dropConn(url)
	}
	return err
}

// call runs one method on the peer at url as its own exchange and
// returns the answer as a T. An answer of any other type is a malformed
// reply, which counts against the peer like a transport failure.
func call[T any](s *Scheduler, url, token, trace, method string, params ...any) (T, error) {
	var out T
	err := s.exchange(url, func(c Conn) error {
		v, err := c.Call(token, trace, method, params...)
		if err != nil {
			return err
		}
		if out, err = rpc.As[T](v); err != nil {
			return fmt.Errorf("%s result: %w", method, err)
		}
		return nil
	})
	return out, err
}

// dropConn discards a connection after transport-level failures so the
// next use re-dials.
func (s *Scheduler) dropConn(url string) {
	s.mu.Lock()
	c, ok := s.conns[url]
	if ok {
		delete(s.conns, url)
	}
	s.mu.Unlock()
	if ok {
		c.Close()
	}
}

// refreshPeers folds the discovery cache into the peer table: new peers
// appear, moved peers rebind to their new URL, and entries past their TTL
// drop out (with their cached sessions).
func (s *Scheduler) refreshPeers() {
	entries := s.peers.PeersFor("job", s.cfg.ServerName)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if now.After(e.Expires) {
			continue
		}
		seen[e.Server] = true
		p, ok := s.table[e.Server]
		if !ok {
			p = &peer{name: e.Server}
			s.table[e.Server] = p
			s.registerBreakerGauge(e.Server)
		}
		if p.url != e.URL {
			p.url = e.URL // service moved: rebind (location independence)
		}
		p.expires = e.Expires
	}
	for name, p := range s.table {
		if !seen[name] && now.After(p.expires) {
			delete(s.table, name)
			s.breakers.Forget(p.url)
			maps.DeleteFunc(s.sessions, func(k sessionKey, _ string) bool { return k.peer == name })
		}
	}
}

// pollPeers refreshes every peer's load score from its public job.stats.
// The poll doubles as the breaker recovery path: an open breaker past
// its cooldown admits exactly this call as the half-open probe, and a
// successful answer re-closes it.
func (s *Scheduler) pollPeers() {
	s.mu.Lock()
	peers := make([]*peer, 0, len(s.table))
	for _, p := range s.table {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		st, err := call[map[string]any](s, p.url, "", "", "job.stats")
		s.mu.Lock()
		p.alive = err == nil
		if p.alive {
			p.queued, _ = rpc.CoerceInt(st["queued"])
			p.running, _ = rpc.CoerceInt(st["running"])
			p.workers, _ = rpc.CoerceInt(st["workers"])
		}
		s.mu.Unlock()
	}
}

// watchRemote tracks forwarded jobs on their executing peers, pulls
// back terminal results, and falls back to local execution when a peer
// stops answering. Jobs are watched in groups sharing a peer and a
// delegated session; pollDue says which of a group's jobs this cycle's
// status sweep covers.
func (s *Scheduler) watchRemote() {
	// Group by (endpoint, delegated session): each group is one push
	// subscription at most, and one batched status sweep under the
	// owner's identity for whatever jobs are due.
	groups := make(map[watchKey][]*jobsvc.Job)
	for _, j := range s.jobs.RemoteJobs() {
		if j.RemoteID == "" || j.PeerURL == "" {
			// A remote record with no peer binding can only predate this
			// process: cycles are serialized (cycleMu) and forward()
			// resolves every claim to MarkForwarded or fallback before its
			// cycle ends, so nothing in-flight looks like this. It means a
			// past run crashed between ClaimForward and MarkForwarded —
			// no peer holds the job, so reclaim it for the local queue
			// rather than skipping it forever.
			s.fallback(j, "recovered remote record with no peer binding; re-queued locally")
			continue
		}
		k := watchKey{j.PeerURL, j.PeerSession}
		groups[k] = append(groups[k], j)
	}
	s.pruneWatches(groups)
	for k, jobs := range groups {
		// Dial the push subscription BEFORE polling: any transition after
		// this point raises an event, and a new stream's first sweep
		// covers everything that happened before it. No gap.
		w := s.watch(k)
		due := s.pollDue(w, jobs)
		if len(due) == 0 {
			continue
		}
		calls := make([]Call, len(due))
		for i, j := range due {
			calls[i] = Call{Method: "job.status", Params: []any{j.RemoteID}, Trace: j.Trace}
		}
		var results []Result
		err := s.exchange(k.url, func(c Conn) (err error) {
			s.mu.Lock()
			s.stats.StatusRPCs += uint64(len(calls))
			s.mu.Unlock()
			results, err = c.Batch(k.token, calls)
			if err == nil && len(results) != len(calls) {
				err = fmt.Errorf("job.status sweep: %d results for %d calls", len(results), len(calls))
			}
			return err
		})
		if err != nil {
			// Whether refused by an open breaker or failed on the wire,
			// each job's failed-poll count advances, so work on a dead peer
			// falls back through the usual DeadPolls tolerance.
			for _, j := range due {
				s.failJob(j, err)
			}
			continue
		}
		now := time.Now()
		for i, r := range results {
			j := due[i]
			w.mu.Lock()
			delete(w.ready, j.RemoteID)
			w.mu.Unlock()
			st, _ := r.Value.(map[string]any)
			state, _ := st["state"].(string)
			s.mu.Lock()
			jw := s.watched[j.ID]
			jw.polled = now
			if r.Err == nil && !jobsvc.Terminal(state) {
				jw.fails = 0 // the peer vouches for the job, still running
			}
			s.watched[j.ID] = jw
			s.mu.Unlock()
			switch {
			case isAuthFault(r.Err):
				// The delegated session expired while the job was still
				// remote. Renew it and retry next cycle — the remote
				// attempt may well be running, and requeuing now would
				// execute the job twice.
				s.renewDelegation(j)
				s.failJob(j, r.Err)
			case r.Err != nil:
				// The peer answered but no longer vouches for the job
				// (lost its table after a restart): immediate fallback.
				s.fallback(j, "peer lost job: "+r.Err.Error())
			case jobsvc.Terminal(state):
				s.pullBack(j, state)
			}
		}
	}
}

// watch returns a group's watch record, creating it on first sight, and
// dials the group's push subscription when it has none and may get one:
// an EventDialer is configured, the peer's breaker is not open, and no
// failed dial's backoff is pending.
func (s *Scheduler) watch(k watchKey) *peerWatch {
	s.mu.Lock()
	w, ok := s.watches[k]
	if !ok {
		w = &peerWatch{ready: make(map[string]bool)}
		s.watches[k] = w
	}
	s.mu.Unlock()
	w.mu.Lock()
	due := w.stream == nil && !time.Now().Before(w.dialAt)
	w.mu.Unlock()
	if !due || s.cfg.EventDial == nil || s.breakers.State(k.url) == resilience.Open {
		// An open breaker already knows the peer is down; its recovery
		// probe re-opens the door.
		return w
	}
	st, err := s.cfg.EventDial(k.url, k.token, "type=job.state")
	if err != nil {
		w.mu.Lock()
		w.dialAt = time.Now().Add(max(30*s.cfg.PollInterval, 5*time.Second))
		w.mu.Unlock()
		s.logger.Printf("metasched: no push events from %s (%v); polling its jobs", k.url, err)
		return w
	}
	// Stop or a prune may have retired the record while the dial ran.
	s.mu.Lock()
	live := !s.stopped && s.watches[k] == w
	if live {
		s.wg.Add(1)
		w.mu.Lock()
		// Whatever happened before the subscription raised no event
		// here: the first sweep covers the whole group.
		w.stream, w.resync = st, true
		w.mu.Unlock()
	}
	s.mu.Unlock()
	if !live {
		st.Close()
		return w
	}
	go s.runWatch(w, st)
	s.logger.Printf("metasched: watching %s over push events", k.url)
	return w
}

// runWatch drains one push subscription, marking jobs whose terminal
// transition arrived so the next cycle polls exactly those, and nudging
// the control loop awake for each.
func (s *Scheduler) runWatch(w *peerWatch, st EventStream) {
	defer s.wg.Done()
	for ev := range st.Events() {
		s.mu.Lock()
		s.stats.PushEvents++
		s.mu.Unlock()
		rid, state := ev.Tags["job_id"], ev.Tags["state"]
		w.mu.Lock()
		switch {
		case ev.Type != "job.state":
			// Lag and reconnect markers, and anything else we cannot
			// attribute to a specific job: poll the whole group next cycle.
			w.resync = true
		case rid != "" && jobsvc.Terminal(state):
			w.ready[rid] = true
		default:
			// Progress is nice to know; only terminal states need a pull.
			w.mu.Unlock()
			continue
		}
		w.mu.Unlock()
		s.wake()
	}
	// The stream is over (it failed for good, was pruned, or the
	// scheduler is stopping). Without it the group is polled in full, and
	// the next cycle dials a fresh stream whose first sweep covers the
	// gap.
	w.end(st)
	s.wake()
}

// end detaches the record's stream if it is still st — any stream when
// st is nil — and closes it.
func (w *peerWatch) end(st EventStream) {
	w.mu.Lock()
	if st == nil || w.stream == st {
		st, w.stream = w.stream, nil
	} else {
		st = nil
	}
	w.mu.Unlock()
	if st != nil {
		st.Close()
	}
}

// pollDue selects which of a group's jobs this cycle's status sweep
// covers. A group with no stream, or one that must resync, polls every
// job; otherwise it polls the jobs whose terminal event arrived and the
// jobs not polled within the safety interval (which includes jobs never
// polled since forwarding).
func (s *Scheduler) pollDue(w *peerWatch, jobs []*jobsvc.Job) []*jobsvc.Job {
	w.mu.Lock()
	all := w.stream == nil || w.resync
	w.resync = false
	ready := maps.Clone(w.ready)
	w.mu.Unlock()
	if all {
		return jobs
	}
	safety := max(15*s.cfg.PollInterval, 2*time.Second)
	now := time.Now()
	var due []*jobsvc.Job
	s.mu.Lock()
	for _, j := range jobs {
		if ready[j.RemoteID] || now.Sub(s.watched[j.ID].polled) >= safety {
			due = append(due, j)
		}
	}
	s.mu.Unlock()
	return due
}

// pruneWatches drops the watch records of groups that no longer have
// remote jobs, closing their push subscriptions, so watches do not
// outlive the work they cover.
func (s *Scheduler) pruneWatches(groups map[watchKey][]*jobsvc.Job) {
	var drop []*peerWatch
	s.mu.Lock()
	for k, w := range s.watches {
		if len(groups[k]) == 0 {
			delete(s.watches, k)
			drop = append(drop, w)
		}
	}
	s.mu.Unlock()
	for _, w := range drop {
		w.end(nil)
	}
}

// pullBack fetches a terminal remote job's output and finalizes the local
// shadow record. Inline heads come back in the job.output envelope;
// staged artifacts are fetched from the executing peer by chunk-iterating
// its file.read under the job owner's delegated session (the peer's
// artifact ACL is scoped to exactly that DN) and re-staged into the local
// artifact tree, so the shadow record converges to the same shape as a
// locally executed job. A failed transfer leaves the record remote and
// retries next cycle; persistent failure degrades through the usual
// DeadPolls fallback.
func (s *Scheduler) pullBack(j *jobsvc.Job, state string) {
	out, err := call[map[string]any](s, j.PeerURL, j.PeerSession, j.Trace, "job.output", j.RemoteID)
	if err != nil {
		s.failJob(j, err)
		return
	}
	res, _ := jobsvc.ParseOutput(out)
	arts := res.Artifacts
	res.Artifacts = nil // they name the peer's namespace
	if len(arts) > 0 && s.jobs.StagingEnabled() {
		staged, pulled, err := s.pullArtifacts(j, arts)
		if err != nil {
			s.jobs.DiscardRemoteStage(j.ID)
			s.failJob(j, fmt.Errorf("artifact pull-back from %s: %w", j.Peer, err))
			return
		}
		res.Artifacts = staged
		s.mu.Lock()
		s.stats.ArtifactBytes += uint64(pulled)
		s.mu.Unlock()
	}
	errMsg := ""
	if state == jobsvc.StateFailed || state == jobsvc.StateCancelled {
		errMsg = fmt.Sprintf("remote %s on peer %s", state, j.Peer)
	}
	if err := s.jobs.CompleteRemote(j.ID, state, res, errMsg); err != nil {
		s.logger.Printf("metasched: finalize %s: %v", j.ID, err)
		return
	}
	s.mu.Lock()
	s.stats.PulledBack++
	delete(s.watched, j.ID)
	s.mu.Unlock()
}

// artifactChunk is the file.read chunk size used for artifact transfers.
const artifactChunk = 1 << 20

// pullArtifacts fetches every artifact referenced by a peer's job.output
// and re-stages it locally, verifying digests. Returns the local
// references and total bytes transferred.
func (s *Scheduler) pullArtifacts(j *jobsvc.Job, arts []jobsvc.Artifact) ([]jobsvc.Artifact, int64, error) {
	out := make([]jobsvc.Artifact, 0, len(arts))
	var pulled int64
	for _, ra := range arts {
		if ra.Name == "" || ra.Path == "" {
			continue
		}
		// An artifact bigger than the local spool cap could never verify
		// here — transferring it would truncate into a guaranteed digest
		// mismatch and a futile retry loop. Skip it explicitly; the
		// record keeps its truncated heads.
		if ra.Size > s.jobs.SpoolLimit() {
			s.logger.Printf("metasched: skipping artifact %q of %s: %d bytes exceeds the local spool limit %d", ra.Name, j.ID, ra.Size, s.jobs.SpoolLimit())
			continue
		}
		r := &remoteFileReader{s: s, j: j, path: ra.Path}
		a, err := s.jobs.StageRemoteArtifact(j.ID, ra.Name, r)
		if err != nil {
			return nil, 0, fmt.Errorf("stage %q: %w", ra.Name, err)
		}
		if ra.MD5 != "" && a.MD5 != ra.MD5 {
			return nil, 0, fmt.Errorf("artifact %q digest mismatch (got %s, peer reported %s)", ra.Name, a.MD5, ra.MD5)
		}
		// A stream the peer's own spool cap cut short stays marked: the
		// re-staged copy is byte-identical but still not the full stream.
		a.Partial = ra.Partial
		out = append(out, a)
		pulled += a.Size
	}
	return out, pulled, nil
}

// remoteFileReader adapts the chunk-iterated file.read of j's executing
// peer to io.Reader, one exchange per chunk, terminating on the
// response's eof flag (no zero-byte probe round trip).
type remoteFileReader struct {
	s      *Scheduler
	j      *jobsvc.Job
	path   string
	offset int
	buf    []byte
	eof    bool
	err    error
}

func (r *remoteFileReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		if r.eof {
			return 0, io.EOF
		}
		m, err := call[map[string]any](r.s, r.j.PeerURL, r.j.PeerSession, r.j.Trace, "file.read", r.path, r.offset, artifactChunk)
		if err != nil {
			r.err = err
			return 0, err
		}
		data, _ := rpc.As[[]byte](m["data"])
		r.eof, _ = m["eof"].(bool)
		r.offset += len(data)
		r.buf = data
		if len(data) == 0 {
			if r.eof {
				return 0, io.EOF
			}
			// Empty chunk without eof would loop at this offset forever.
			r.err = fmt.Errorf("file.read returned no data and no eof at offset %d", r.offset)
			return 0, r.err
		}
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// failJob records one failed watch poll of j and falls it back once it
// reaches the DeadPolls tolerance.
func (s *Scheduler) failJob(j *jobsvc.Job, err error) {
	s.mu.Lock()
	jw := s.watched[j.ID]
	jw.fails++
	s.watched[j.ID] = jw
	n := jw.fails
	s.mu.Unlock()
	if n < s.cfg.DeadPolls {
		return
	}
	reason := fmt.Sprintf("peer %s unreachable after %d polls; re-queued locally", j.Peer, n)
	if err != nil {
		reason = fmt.Sprintf("peer %s unreachable after %d polls (%v); re-queued locally", j.Peer, n, err)
	}
	// The peer may only be partitioned and still running this job
	// (at-least-once fallback): remember the remote binding so the copy
	// can be cancelled if the peer answers again.
	if j.RemoteID != "" && j.PeerURL != "" {
		s.mu.Lock()
		s.orphans[j.PeerURL] = append(s.orphans[j.PeerURL], orphan{remoteID: j.RemoteID, token: j.PeerSession, trace: j.Trace})
		s.mu.Unlock()
	}
	s.fallback(j, reason)
}

// orphan is the remote copy of a job reclaimed locally after its peer
// stopped answering; if the peer was only partitioned the copy may still
// be running, so the control loop best-effort cancels it on return.
type orphan struct {
	remoteID string
	token    string // delegated session the copy was submitted under
	trace    string // the job's trace, kept on the cancel call
	cycles   int    // reap attempts so far; dropped at orphanMaxCycles
}

// orphanMaxCycles bounds how long an orphaned remote copy is remembered
// — the delegated session it would be cancelled under expires long
// before a peer absent this many cycles comes back.
const orphanMaxCycles = 150

// reapOrphans tries to cancel remote copies of jobs reclaimed from
// unresponsive peers, closing (best-effort) the duplicate-execution
// window of the at-least-once fallback. An entry is dropped once the
// peer answers the cancel — whatever the verdict: cancelled, already
// terminal, unknown job, or expired session all mean there is nothing
// further to do — and retained across cycles while the peer stays
// unreachable, up to orphanMaxCycles.
func (s *Scheduler) reapOrphans() {
	s.mu.Lock()
	pending := s.orphans
	s.orphans = make(map[string][]orphan)
	s.mu.Unlock()
	for url, left := range pending {
		for ; len(left) > 0; left = left[1:] {
			o := left[0]
			_, err := call[bool](s, url, o.token, o.trace, "job.cancel", o.remoteID)
			if err != nil && !isFault(err) {
				// Breaker open, dial failed or transport failure: the peer
				// is still unreachable. Keep the copies not yet cancelled,
				// each a cycle older.
				s.mu.Lock()
				for _, o := range left {
					if o.cycles++; o.cycles < orphanMaxCycles {
						s.orphans[url] = append(s.orphans[url], o)
					}
				}
				s.mu.Unlock()
				break
			}
			if err != nil {
				// The peer answered with a fault — unknown job, already
				// terminal, expired session. Nothing left to cancel, but
				// the copy may have run to completion there: say so.
				s.logger.Printf("metasched: orphaned remote copy %s on %s not cancelled (%v); it may have completed remotely", o.remoteID, url, err)
				continue
			}
			s.logger.Printf("metasched: cancelled orphaned remote copy %s on %s", o.remoteID, url)
		}
	}
}

// fallback returns one forwarded job to the local queue.
func (s *Scheduler) fallback(j *jobsvc.Job, reason string) {
	if err := s.jobs.RequeueLocal(j.ID, reason); err != nil {
		s.logger.Printf("metasched: requeue %s: %v", j.ID, err)
		return
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	delete(s.watched, j.ID)
	s.mu.Unlock()
}

// forward claims queued jobs beyond the pressure threshold and pushes
// them to the least-loaded live peers.
func (s *Scheduler) forward() {
	over := s.jobs.Stats().Queued - s.cfg.Pressure
	if over <= 0 {
		return
	}
	s.mu.Lock()
	cands := make([]*peer, 0, len(s.table))
	for _, p := range s.table {
		// Only fully healthy peers get new work: a half-open breaker means
		// the peer is still proving itself on the cheap stats probe.
		if p.alive && p.free() > 0 && s.breakers.State(p.url) == resilience.Closed {
			cands = append(cands, p)
		}
	}
	// Most idle capacity first; stable tiebreak on name for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if fi, fj := cands[i].free(), cands[j].free(); fi != fj {
			return fi > fj
		}
		return cands[i].name < cands[j].name
	})
	s.mu.Unlock()
	for _, p := range cands {
		if over <= 0 {
			return
		}
		n := p.free()
		if n > over {
			n = over
		}
		if n > maxForward {
			n = maxForward
		}
		claimed := s.jobs.ClaimForward(n, p.name)
		if len(claimed) == 0 {
			return // queue drained underneath us
		}
		over -= len(claimed)
		s.forwardTo(p, claimed)
	}
}

// forwardTo submits claimed jobs to one peer, batched per owner under a
// delegated session. Every job either ends MarkForwarded or back in the
// local queue — none are stranded. Once one owner's handoff or batch
// fails, the owners still to go fall back at once. A failure that is not
// a fault answer also force-opens the peer's breaker; a fault (say, a
// refused delegation) does not, since the peer is alive and the jobs it
// already runs are healthy.
func (s *Scheduler) forwardTo(p *peer, claimed []*jobsvc.Job) {
	byOwner := make(map[string][]*jobsvc.Job)
	for _, j := range claimed {
		byOwner[j.Owner] = append(byOwner[j.Owner], j)
	}
	var failed error
	for owner, jobs := range byOwner {
		var token string
		var results []Result
		if failed == nil {
			token, results, failed = s.submit(p, owner, jobs)
			if failed != nil && !isFault(failed) {
				// The peer sits out until the breaker's cooldown elapses
				// and the job.stats recovery probe succeeds.
				s.breakers.For(p.url).ForceOpen()
			}
		}
		if failed != nil {
			for _, j := range jobs {
				s.fallback(j, fmt.Sprintf("forward to peer %s failed: %v", p.name, failed))
			}
			continue
		}
		for i, r := range results {
			j := jobs[i]
			if r.Err != nil {
				if isAuthFault(r.Err) {
					s.mu.Lock()
					delete(s.sessions, sessionKey{p.name, owner})
					s.mu.Unlock()
				}
				s.fallback(j, fmt.Sprintf("peer %s refused job: %v", p.name, r.Err))
				continue
			}
			rid, _ := r.Value.(string)
			if rid == "" {
				s.fallback(j, fmt.Sprintf("peer %s returned no job id", p.name))
				continue
			}
			if err := s.jobs.MarkForwarded(j.ID, p.url, rid, token); err != nil {
				// The peer holds the job but the local binding could not
				// be persisted; without it the watch loop would skip the
				// record forever. Withdraw the remote copy best-effort
				// and run the job locally instead.
				s.logger.Printf("metasched: bind %s->%s@%s: %v", j.ID, rid, p.name, err)
				call[bool](s, p.url, token, j.Trace, "job.cancel", rid)
				s.fallback(j, fmt.Sprintf("could not record forwarding to %s: %v", p.name, err))
				continue
			}
			s.mu.Lock()
			s.stats.Forwarded++
			p.queued++ // charge the table so this cycle doesn't overcommit
			s.mu.Unlock()
		}
	}
}

// submit sends one owner's jobs to peer p as one job.submit batch under
// the owner's delegated session, returning the session and one result
// per job.
func (s *Scheduler) submit(p *peer, owner string, jobs []*jobsvc.Job) (string, []Result, error) {
	token, err := s.delegate(p.name, p.url, owner)
	if err != nil {
		return "", nil, fmt.Errorf("delegation: %w", err)
	}
	calls := make([]Call, len(jobs))
	for i, j := range jobs {
		params := []any{j.Command, j.Priority, j.MaxRetries}
		if len(j.Collect) > 0 {
			collect := make([]any, len(j.Collect))
			for k, pat := range j.Collect {
				collect[k] = pat
			}
			params = append(params, collect)
		}
		calls[i] = Call{Method: "job.submit", Params: params, Trace: j.Trace}
		if st := s.cfg.Spans; st != nil && j.Trace != "" {
			// Record the forward edge before the batch leaves, so even a
			// trace whose job dies on the peer can still be assembled;
			// carry the force-sample bit so a sampled trace stays
			// sampled downstream.
			st.Link(j.Trace, p.url)
			calls[i].Sample = st.Sampled(j.Trace)
		}
	}
	var results []Result
	err = s.exchange(p.url, func(c Conn) (err error) {
		results, err = c.Batch(token, calls)
		if err == nil && len(results) != len(calls) {
			err = fmt.Errorf("job.submit batch: %d results for %d calls", len(results), len(calls))
		}
		return err
	})
	return token, results, err
}

func isAuthFault(err error) bool {
	var f *rpc.Fault
	if errors.As(err, &f) {
		return f.Code == rpc.CodeNotAuthorized || f.Code == rpc.CodeAccessDenied
	}
	return false
}

// isFault reports whether err is a structured RPC fault — i.e. the peer
// answered, as opposed to a transport-level failure.
func isFault(err error) bool {
	var f *rpc.Fault
	return errors.As(err, &f)
}

// delegate returns a session on the named peer at url acting as owner,
// performing the delegation handoff on first use: mint a one-time secret
// locally, redeem it on the peer, which calls back proxy.check_delegation
// here to verify. The session is cached per (peer, owner).
func (s *Scheduler) delegate(peer, url, owner string) (string, error) {
	k := sessionKey{peer, owner}
	s.mu.Lock()
	token, ok := s.sessions[k]
	s.mu.Unlock()
	if ok {
		return token, nil
	}
	dn, err := pki.ParseDN(owner)
	if err != nil {
		return "", fmt.Errorf("bad owner DN: %w", err)
	}
	secret, err := s.deleg.IssueDelegation(dn, proxysvc.DefaultDelegationTTL)
	if err != nil {
		return "", err
	}
	token, err = call[string](s, url, "", "", "proxy.login_delegated", owner, secret, s.cfg.SelfURL())
	if err != nil {
		return "", err
	}
	if token == "" {
		return "", fmt.Errorf("peer returned empty session token")
	}
	s.mu.Lock()
	s.sessions[k] = token
	s.mu.Unlock()
	return token, nil
}

// renewDelegation replaces an expired delegated session for j's owner on
// its executing peer and rebinds the shadow record, so the next watch
// poll authenticates again. Jobs sharing the stale session reuse the
// first renewal's token instead of logging in repeatedly.
func (s *Scheduler) renewDelegation(j *jobsvc.Job) {
	k := sessionKey{j.Peer, j.Owner}
	s.mu.Lock()
	if s.sessions[k] == j.PeerSession {
		delete(s.sessions, k) // the cached session is the expired one
	}
	s.mu.Unlock()
	token, err := s.delegate(j.Peer, j.PeerURL, j.Owner)
	if err != nil {
		s.logger.Printf("metasched: renew delegation for %s on %s: %v", j.ID, j.Peer, err)
		return
	}
	if err := s.jobs.MarkForwarded(j.ID, j.PeerURL, j.RemoteID, token); err != nil {
		s.logger.Printf("metasched: rebind %s after renewal: %v", j.ID, err)
	}
}

// --- jobsvc.RemoteController ---

// Refresh returns a live view of a forwarded job from its executing
// peer: status always, outputs once terminal — one system.multicall
// round trip.
func (s *Scheduler) Refresh(j *jobsvc.Job) (*jobsvc.Job, error) {
	if j.PeerURL == "" || j.RemoteID == "" {
		return nil, fmt.Errorf("metasched: job %s has no remote binding", j.ID)
	}
	var results []Result
	err := s.exchange(j.PeerURL, func(c Conn) (err error) {
		results, err = c.Batch(j.PeerSession, []Call{
			{Method: "job.status", Params: []any{j.RemoteID}, Trace: j.Trace},
			{Method: "job.output", Params: []any{j.RemoteID}, Trace: j.Trace},
		})
		if err == nil && len(results) != 2 {
			err = fmt.Errorf("%d results for 2 calls", len(results))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("metasched: refresh %s on %s: %w", j.ID, j.Peer, err)
	}
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	st, _ := results[0].Value.(map[string]any)
	live := *j // the shadow record, overlaid with the peer's view
	if state, ok := st["state"].(string); ok && state != "" {
		// While the peer still has the job queued/running the local state
		// remains "remote" (the peer name says where); terminal states
		// surface directly so status is transparent ahead of pull-back.
		if jobsvc.Terminal(state) {
			live.State = state
		}
	}
	if n, ok := rpc.CoerceInt(st["attempts"]); ok {
		live.Attempts = n
	}
	if lu, ok := st["local_user"].(string); ok {
		live.LocalUser = lu
	}
	if results[1].Err == nil {
		if out, ok := results[1].Value.(map[string]any); ok {
			// Artifact references are NOT surfaced from the live peer
			// view: they name the peer's namespace, which the submitting
			// server's clients cannot fetch through. The local record
			// gains fetchable references when the watch loop pulls the
			// result back and re-stages the artifacts.
			res, _ := jobsvc.ParseOutput(out)
			live.Stdout, live.Stderr, live.ExitCode = res.Stdout, res.Stderr, res.ExitCode
			live.Truncated, live.StdoutTruncated, live.StderrTruncated = res.Truncated, res.StdoutTruncated, res.StderrTruncated
			live.Artifacts = nil
		}
	}
	return &live, nil
}

// CancelRemote relays a cancellation to the executing peer, logging a
// relay that fails.
func (s *Scheduler) CancelRemote(j *jobsvc.Job) {
	if _, err := call[bool](s, j.PeerURL, j.PeerSession, j.Trace, "job.cancel", j.RemoteID); err != nil {
		s.logger.Printf("metasched: relay cancel of %s to %s: %v", j.ID, j.Peer, err)
	}
}

var _ jobsvc.RemoteController = (*Scheduler)(nil)
