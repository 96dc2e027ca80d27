package discovery

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clarens/internal/core"
	"clarens/internal/monalisa"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

var adminDN = pki.MustParseDN("/O=caltech/OU=People/CN=Admin")

// fixture: one station, one publishing server, one aggregating server.
type fixture struct {
	station *monalisa.Station
	srv     *core.Server // the server whose services are published
	svc     *Service
	agg     *Aggregator
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	station, err := monalisa.NewStation("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { station.Close() })

	srv, err := core.NewServer(core.Config{AdminDNs: []string{adminDN.String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	pub, err := monalisa.NewPublisher(station.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })

	svc := New(srv, "tier2.caltech.edu", pub)
	if err := srv.Register(svc); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(srv.Store(), station)
	t.Cleanup(agg.Close)
	return &fixture{station: station, srv: srv, svc: svc, agg: agg}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEntriesGroupMethodsByService(t *testing.T) {
	f := newFixture(t)
	entries := f.svc.Entries("http://host:8080")
	// system, vo, acl, discovery modules are registered in the fixture.
	byName := map[string]Entry{}
	for _, e := range entries {
		byName[e.Service] = e
	}
	for _, want := range []string{"system", "vo", "acl", "discovery"} {
		e, ok := byName[want]
		if !ok {
			t.Errorf("service %q missing from entries", want)
			continue
		}
		if len(e.Methods) == 0 || e.URL != "http://host:8080" || e.Server != "tier2.caltech.edu" {
			t.Errorf("entry = %+v", e)
		}
	}
}

func TestPublishFlowsThroughStationToCache(t *testing.T) {
	f := newFixture(t)
	n, err := f.svc.PublishAll("http://tier2.caltech.edu:8080")
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("published %d entries", n)
	}
	waitFor(t, "aggregated cache", func() bool {
		entries, _ := f.svc.Find("*")
		return len(entries) >= 4
	})
	entries, err := f.svc.Find("*/file")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Error("no file service was registered; pattern should match nothing")
	}
	entries, _ = f.svc.Find("*/system")
	if len(entries) != 1 || entries[0].URL != "http://tier2.caltech.edu:8080" {
		t.Errorf("find(*/system) = %+v", entries)
	}
}

func TestFindPatterns(t *testing.T) {
	f := newFixture(t)
	f.svc.PublishAll("http://x")
	waitFor(t, "cache", func() bool { e, _ := f.svc.Find("*"); return len(e) >= 4 })

	cases := map[string]int{
		"*":                   0,  // filled below: all entries
		"system":              1,  // bare pattern implies */
		"*/v?":                1,  // vo
		"tier2.caltech.edu/*": 0,  // all, filled below
		"other.server/*":      -1, // zero matches (placeholder)
	}
	all, _ := f.svc.Find("*")
	cases["*"] = len(all)
	cases["tier2.caltech.edu/*"] = len(all)
	cases["other.server/*"] = 0
	for pattern, want := range cases {
		got, err := f.svc.Find(pattern)
		if err != nil {
			t.Fatalf("Find(%q): %v", pattern, err)
		}
		if len(got) != want {
			t.Errorf("Find(%q) = %d entries, want %d", pattern, len(got), want)
		}
	}
}

func TestExpiredEntriesInvisibleAndPurged(t *testing.T) {
	f := newFixture(t)
	f.svc.ttl = 10 * time.Millisecond
	f.svc.PublishAll("http://x")
	waitFor(t, "cache fill", func() bool {
		return f.srv.Store().Len("discovery") >= 4
	})
	time.Sleep(20 * time.Millisecond)
	entries, _ := f.svc.Find("*")
	if len(entries) != 0 {
		t.Errorf("expired entries served: %+v", entries)
	}
	if n := f.agg.Purge(); n < 4 {
		t.Errorf("Purge = %d", n)
	}
	if f.srv.Store().Len("discovery") != 0 {
		t.Error("purge left entries behind")
	}
}

func TestServiceMethodsRPC(t *testing.T) {
	f := newFixture(t)
	// discovery.register / find / servers / methods via the dispatch
	// pipeline, as a client would call them.
	sess, _ := f.srv.NewSessionFor(adminDN)
	callCtx := func(method string, params ...any) *rpc.Response {
		httpReq := httptest.NewRequest(http.MethodPost, "/rpc", nil)
		httpReq.Header.Set(core.SessionHeader, sess.ID)
		return f.srv.Dispatch(httpReq, "test", &rpc.Request{Method: method, Params: params})
	}
	resp := callCtx("discovery.register", "http://tier2:8080")
	if resp.Fault != nil {
		t.Fatalf("register: %v", resp.Fault)
	}
	waitFor(t, "cache", func() bool { e, _ := f.svc.Find("*"); return len(e) >= 4 })

	resp = callCtx("discovery.servers")
	if resp.Fault != nil {
		t.Fatalf("servers: %v", resp.Fault)
	}
	if !rpc.Equal(resp.Result, []any{"tier2.caltech.edu"}) {
		t.Errorf("servers = %#v", resp.Result)
	}
	resp = callCtx("discovery.find", "*/system")
	if resp.Fault != nil {
		t.Fatalf("find: %v", resp.Fault)
	}
	list := resp.Result.([]any)
	if len(list) != 1 {
		t.Fatalf("find = %#v", list)
	}
	entry := list[0].(map[string]any)
	if entry["url"] != "http://tier2:8080" {
		t.Errorf("entry = %#v", entry)
	}
	resp = callCtx("discovery.methods", "tier2.caltech.edu", "system")
	if resp.Fault != nil {
		t.Fatalf("methods: %v", resp.Fault)
	}
	if len(resp.Result.([]any)) < 5 {
		t.Errorf("methods = %#v", resp.Result)
	}
	resp = callCtx("discovery.methods", "ghost", "system")
	if resp.Fault == nil {
		t.Error("missing entry must fault")
	}
}

func TestDeregisterPublishesTombstones(t *testing.T) {
	f := newFixture(t)
	f.svc.PublishAll("http://x")
	waitFor(t, "cache", func() bool { e, _ := f.svc.Find("*"); return len(e) >= 4 })

	// Deregister marks entries expired; after propagation Find is empty.
	entries := f.svc.Entries("")
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	if _, err := f.svc.deregister(nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tombstones", func() bool {
		e, _ := f.svc.Find("*")
		return len(e) == 0
	})
}

func TestPeriodicPublishRefreshes(t *testing.T) {
	f := newFixture(t)
	f.svc.ttl = 80 * time.Millisecond
	f.svc.StartPeriodicPublish("http://x", 20*time.Millisecond)
	defer f.svc.StopPeriodic()
	waitFor(t, "cache fill", func() bool { e, _ := f.svc.Find("*"); return len(e) >= 4 })
	// Live entries remain visible well past one TTL thanks to refresh.
	time.Sleep(160 * time.Millisecond)
	entries, _ := f.svc.Find("*")
	if len(entries) < 4 {
		t.Errorf("entries lost despite periodic refresh: %d", len(entries))
	}
	// Idempotent start, stop, stop.
	f.svc.StartPeriodicPublish("http://x", time.Hour)
	f.svc.StopPeriodic()
	f.svc.StopPeriodic()
}

func TestPublisherlessServerCannotRegister(t *testing.T) {
	srv, _ := core.NewServer(core.Config{})
	defer srv.Close()
	svc := New(srv, "queryonly", nil)
	if _, err := svc.PublishAll("http://x"); err == nil {
		t.Error("publisher-less PublishAll must error")
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"*", "anything/at-all", true},
		{"*/file", "srv/file", true},
		{"*/file", "srv/files", false},
		{"s?v/*", "srv/file", true},
		{"tier2.*/sys*", "tier2.caltech.edu/system", true},
		{"", "", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a*c", "abbbc", true},
		{"a*c", "ab", false},
	}
	for _, c := range cases {
		got, err := globMatch(c.pattern, c.name)
		if err != nil {
			t.Fatalf("globMatch(%q,%q): %v", c.pattern, c.name, err)
		}
		if got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestAggregatorSeedsFromSnapshot(t *testing.T) {
	// An aggregator attached *after* records arrived must seed its cache
	// from the station snapshot (restart recovery).
	station, err := monalisa.NewStation("central", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer station.Close()
	srv, _ := core.NewServer(core.Config{})
	defer srv.Close()
	pub, _ := monalisa.NewPublisher(station.Addr())
	defer pub.Close()
	svc := New(srv, "late", pub)
	srv.Register(svc)
	svc.PublishAll("http://late:80")

	waitFor(t, "station has records", func() bool {
		return len(station.Query("clarens-services", "", "")) > 0
	})

	agg := NewAggregator(srv.Store(), station)
	defer agg.Close()
	entries, _ := svc.Find("late/*")
	if len(entries) == 0 {
		t.Error("snapshot seeding failed")
	}
}

func TestPeersFor(t *testing.T) {
	srv, err := core.NewServer(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc := New(srv, "self", nil)
	seed := func(server, service, url string, ttl time.Duration) {
		e := Entry{Server: server, Service: service, URL: url, Expires: time.Now().Add(ttl)}
		if err := srv.Store().PutJSON(bucket, e.Key(), &e); err != nil {
			t.Fatal(err)
		}
	}
	seed("self", "job", "http://self:1/rpc", time.Minute)
	seed("peer1", "job", "http://peer1:1/rpc", time.Minute)
	seed("peer2", "job", "http://peer2:1/rpc", time.Minute)
	seed("peer2", "file", "http://peer2:1/rpc", time.Minute)
	seed("gone", "job", "http://gone:1/rpc", -time.Second) // expired

	peers := svc.PeersFor("job", "self")
	if len(peers) != 2 {
		t.Fatalf("PeersFor = %v, want peer1+peer2", peers)
	}
	for _, p := range peers {
		if p.Server == "self" || p.Server == "gone" || p.Service != "job" {
			t.Errorf("unexpected peer %+v", p)
		}
	}
}
