// Package discovery implements Clarens dynamic service discovery (paper
// §2.4, Figure 3): servers publish service descriptions through the
// MonALISA station network; discovery servers aggregate the
// publish/subscribe stream into a local database and answer service
// queries from that cache "far more rapidly" than querying the network.
//
// "Within a global distributed service environment services will appear,
// disappear, and be moved in an unpredictable manner" — entries carry
// expiry times and are refreshed by periodic republication; lookups are
// location-independent (clients query, then bind to the returned URL in
// real time).
package discovery

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"clarens/internal/core"
	"clarens/internal/db"
	"clarens/internal/monalisa"
	"clarens/internal/rpc"
)

// discoveryFarm is the GLUE farm name under which Clarens service
// records travel on the MonALISA network.
const discoveryFarm = "clarens-services"

// entryTag is the record tag carrying the serialized Entry.
const entryTag = "entry"

const bucket = "discovery"

// DefaultTTL is how long a published entry stays valid without refresh.
const DefaultTTL = 5 * time.Minute

// Entry describes one service on one server.
type Entry struct {
	Server  string    `json:"server"`  // server instance name
	URL     string    `json:"url"`     // RPC endpoint URL
	Service string    `json:"service"` // module name, e.g. "file"
	Methods []string  `json:"methods"`
	Version string    `json:"version"`
	Expires time.Time `json:"expires"`
}

// Key is the cache key for the entry.
func (e *Entry) Key() string { return e.Server + "/" + e.Service }

// record converts the entry to its MonALISA wire form.
func (e *Entry) record() (*monalisa.Record, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return &monalisa.Record{
		Farm:    discoveryFarm,
		Cluster: e.Server,
		Node:    e.Service,
		Tags:    map[string]string{entryTag: string(data)},
	}, nil
}

// entryFromRecord parses an Entry out of a discovery record; nil if the
// record is not a discovery record.
func entryFromRecord(rec *monalisa.Record) *Entry {
	if rec.Farm != discoveryFarm {
		return nil
	}
	raw, ok := rec.Tags[entryTag]
	if !ok {
		return nil
	}
	var e Entry
	if err := json.Unmarshal([]byte(raw), &e); err != nil {
		return nil
	}
	if e.Server == "" || e.Service == "" || e.URL == "" {
		return nil
	}
	return &e
}

// Aggregator subscribes to a station server and mirrors discovery entries
// into a local database bucket — the Figure 3 JClarens optimization
// ("the JClarens server becomes a fully fledged JINI client, aggregating
// discovery information from the JINI network ... able to respond to
// service searches far more rapidly by using the local database").
type Aggregator struct {
	store  *db.Store
	mu     sync.Mutex
	cancel func()
	done   chan struct{}
}

// NewAggregator attaches to a station's subscription feed.
func NewAggregator(store *db.Store, station *monalisa.Station) *Aggregator {
	ag := &Aggregator{store: store, done: make(chan struct{})}
	ch, cancel := station.Subscribe(func(r *monalisa.Record) bool {
		return r.Farm == discoveryFarm
	})
	ag.cancel = cancel
	go func() {
		defer close(ag.done)
		for rec := range ch {
			if e := entryFromRecord(&rec); e != nil {
				ag.store.PutJSON(bucket, e.Key(), e)
			}
		}
	}()
	// Seed the cache with the station's current snapshot so a restarted
	// aggregator does not wait for the next republication cycle.
	for _, rec := range station.Query(discoveryFarm, "", "") {
		if e := entryFromRecord(&rec); e != nil {
			ag.store.PutJSON(bucket, e.Key(), e)
		}
	}
	return ag
}

// Purge drops expired entries from the cache; returns how many.
func (ag *Aggregator) Purge() int {
	now := time.Now()
	n := 0
	for _, key := range ag.store.Keys(bucket, "") {
		var e Entry
		found, err := ag.store.GetJSON(bucket, key, &e)
		if err != nil || !found {
			continue
		}
		if now.After(e.Expires) {
			if ag.store.Delete(bucket, key) == nil {
				n++
			}
		}
	}
	return n
}

// Close detaches from the station.
func (ag *Aggregator) Close() {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	if ag.cancel != nil {
		ag.cancel()
		ag.cancel = nil
		<-ag.done
	}
}

// Service is the Clarens discovery service: it publishes the local
// server's services to the station network and answers queries from the
// local aggregated cache.
type Service struct {
	srv        *core.Server
	serverName string
	publisher  *monalisa.Publisher
	ttl        time.Duration

	mu         sync.Mutex
	stopPeriod func()
}

// New creates the discovery service. publisher may be nil for servers
// that only *query* (pure clients of the discovery network).
func New(srv *core.Server, serverName string, publisher *monalisa.Publisher) *Service {
	return &Service{srv: srv, serverName: serverName, publisher: publisher, ttl: DefaultTTL}
}

// Name implements core.Service.
func (s *Service) Name() string { return "discovery" }

// Methods implements core.Service.
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name: "discovery.register",
			Help: "Publish every locally registered service module to the discovery network; returns the number of entries published.",
			Func: core.Func1(s.register),
		},
		{
			Name: "discovery.deregister",
			Help: "Publish zero-TTL entries for this server, removing it from caches at the next purge.",
			Func: core.Func0(s.deregister),
		},
		{
			Name:   "discovery.find",
			Help:   "Find services by name pattern (glob on \"server/service\"); returns entries {server, url, service, methods, version, expires}.",
			Public: true,
			Func:   core.Func1(s.find),
		},
		{
			Name:   "discovery.servers",
			Help:   "List the distinct server names present in the discovery cache.",
			Public: true,
			Func:   core.Func0(s.servers),
		},
		{
			Name:   "discovery.methods",
			Help:   "Return the methods advertised for a server/service entry.",
			Public: true,
			Func:   core.Func2(s.methodsOf),
		},
	}
}

// Entries builds the discovery entries for the local server's services.
func (s *Service) Entries(baseURL string) []Entry {
	byService := map[string][]string{}
	for _, m := range s.srv.MethodNames() {
		mod := m
		if i := strings.IndexByte(m, '.'); i >= 0 {
			mod = m[:i]
		}
		byService[mod] = append(byService[mod], m)
	}
	now := time.Now()
	entries := make([]Entry, 0, len(byService))
	for svc, methods := range byService {
		sort.Strings(methods)
		entries = append(entries, Entry{
			Server:  s.serverName,
			URL:     baseURL,
			Service: svc,
			Methods: methods,
			Version: core.Version,
			Expires: now.Add(s.ttl),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Service < entries[j].Service })
	return entries
}

// PublishAll publishes every local service entry; returns the count.
func (s *Service) PublishAll(baseURL string) (int, error) {
	if s.publisher == nil {
		return 0, fmt.Errorf("discovery: this server has no publisher configured")
	}
	entries := s.Entries(baseURL)
	for i := range entries {
		rec, err := entries[i].record()
		if err != nil {
			return i, err
		}
		if err := s.publisher.Publish(rec); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}

// StartPeriodicPublish republishes every interval until StopPeriodic or
// server shutdown — the refresh that keeps entries alive past their TTL.
func (s *Service) StartPeriodicPublish(baseURL string, interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopPeriod != nil {
		return
	}
	stop := make(chan struct{})
	s.stopPeriod = func() { close(stop) }
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.PublishAll(baseURL)
			case <-stop:
				return
			}
		}
	}()
}

// StopPeriodic halts periodic publication.
func (s *Service) StopPeriodic() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopPeriod != nil {
		s.stopPeriod()
		s.stopPeriod = nil
	}
}

func (s *Service) register(ctx *core.Context, url core.Opt[string]) (int, error) {
	baseURL := url.Or(s.srv.URL())
	if baseURL == "" {
		return 0, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "discovery: server has no URL; pass one explicitly"}
	}
	return s.PublishAll(baseURL)
}

func (s *Service) deregister(ctx *core.Context) (int, error) {
	if s.publisher == nil {
		return 0, &rpc.Fault{Code: rpc.CodeApplication, Message: "discovery: no publisher configured"}
	}
	entries := s.Entries("")
	n := 0
	for i := range entries {
		entries[i].URL = "gone://" + s.serverName
		entries[i].Expires = time.Now().Add(-time.Second)
		rec, err := entries[i].record()
		if err != nil {
			continue
		}
		if s.publisher.Publish(rec) == nil {
			n++
		}
	}
	return n, nil
}

// Find answers from the local cache; pattern is a glob over
// "server/service" ("*" finds everything, "*/file" finds file services).
func (s *Service) Find(pattern string) ([]Entry, error) {
	if pattern == "" {
		pattern = "*"
	}
	if !strings.Contains(pattern, "/") {
		pattern = "*/" + pattern
	}
	now := time.Now()
	var out []Entry
	for _, key := range s.srv.Store().Keys(bucket, "") {
		ok, err := globMatch(pattern, key)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var e Entry
		found, err := s.srv.Store().GetJSON(bucket, key, &e)
		if err != nil || !found {
			continue
		}
		if now.After(e.Expires) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// PeersFor returns the live cache entries advertising the named service
// on servers other than excludeServer — the typed peer lookup the
// federated meta-scheduler binds to ("within a global distributed service
// environment services will appear, disappear, and be moved"; peers are
// whatever the discovery network currently knows). Entries carry their
// TTL expiry, so callers can drop peers whose records were not refreshed.
func (s *Service) PeersFor(service, excludeServer string) []Entry {
	entries, err := s.Find("*/" + service)
	if err != nil {
		return nil
	}
	out := entries[:0]
	for _, e := range entries {
		if e.Server == excludeServer {
			continue
		}
		out = append(out, e)
	}
	return out
}

// NOTE: there is intentionally no "does the cache know this URL?"
// predicate here. The cache is fed by an unauthenticated UDP station
// network — presence in it is not trust, and a predicate shaped like one
// invites being wired into security gates (delegation issuer trust lives
// in an explicit operator allowlist; see clarens.Config.FederationIssuers).

// globMatch is path.Match with '/' treated as an ordinary character so a
// single '*' can span server and service names.
func globMatch(pattern, name string) (bool, error) {
	return matchSegments(pattern, name)
}

func matchSegments(pattern, name string) (bool, error) {
	// Simple glob: '*' matches any run, '?' one char.
	var match func(p, n string) bool
	match = func(p, n string) bool {
		for len(p) > 0 {
			switch p[0] {
			case '*':
				for len(p) > 0 && p[0] == '*' {
					p = p[1:]
				}
				if p == "" {
					return true
				}
				for i := 0; i <= len(n); i++ {
					if match(p, n[i:]) {
						return true
					}
				}
				return false
			case '?':
				if n == "" {
					return false
				}
				p, n = p[1:], n[1:]
			default:
				if n == "" || p[0] != n[0] {
					return false
				}
				p, n = p[1:], n[1:]
			}
		}
		return n == ""
	}
	return match(pattern, name), nil
}

func (s *Service) find(ctx *core.Context, pattern core.Opt[string]) ([]any, error) {
	entries, err := s.Find(pattern.Or("*"))
	if err != nil {
		return nil, err
	}
	out := make([]any, len(entries))
	for i, e := range entries {
		out[i] = map[string]any{
			"server":  e.Server,
			"url":     e.URL,
			"service": e.Service,
			"methods": e.Methods,
			"version": e.Version,
			"expires": e.Expires.UTC(),
		}
	}
	return out, nil
}

func (s *Service) servers(ctx *core.Context) ([]string, error) {
	entries, err := s.Find("*")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if !seen[e.Server] {
			seen[e.Server] = true
			out = append(out, e.Server)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (s *Service) methodsOf(ctx *core.Context, server, service string) ([]string, error) {
	var e Entry
	found, err := s.srv.Store().GetJSON(bucket, server+"/"+service, &e)
	if err != nil {
		return nil, err
	}
	if !found || time.Now().After(e.Expires) {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("discovery: no live entry for %s/%s", server, service)}
	}
	return e.Methods, nil
}

var _ core.Service = (*Service)(nil)
