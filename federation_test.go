package clarens

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clarens/internal/jobsvc"
	"clarens/internal/monalisa"
)

// TestDiscoveryFederation reproduces the Figure 3 topology end to end:
// several Clarens servers publish over UDP to a shared station network;
// a discovery front-end (station + aggregator + discovery service)
// answers queries from its local cache; a client binds to the returned
// URLs in real time.
func TestDiscoveryFederation(t *testing.T) {
	station, err := monalisa.NewStation("backbone", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer station.Close()

	// The front-end runs its own station and peers the backbone into it.
	front, err := NewServer(Config{Name: "frontend", LocalStation: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	if err := front.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	udp, err := net.ResolveUDPAddr("udp", front.StationAddr())
	if err != nil {
		t.Fatal(err)
	}
	station.Peer(udp)

	const sites = 4
	var servers []*Server
	for i := 0; i < sites; i++ {
		srv, err := NewServer(Config{
			Name:         fmt.Sprintf("site%d", i),
			StationAddrs: []string{station.Addr().String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishServices(); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}

	client, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// All sites become visible through the front-end's local cache.
	var entries []map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		entries, err = client.Discover("*/system")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) >= sites {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(entries) < sites {
		t.Fatalf("discovered %d/%d sites", len(entries), sites)
	}

	// Location-independent binding: call every discovered server.
	for _, e := range entries {
		url, _ := e["url"].(string)
		server, _ := e["server"].(string)
		if server == "frontend" {
			continue
		}
		sc, err := Dial(url)
		if err != nil {
			t.Fatalf("dial %s: %v", url, err)
		}
		pong, err := CallAs[string](sc, "system.ping")
		sc.Close()
		if err != nil || pong != "pong" {
			t.Errorf("%s via %s: %q %v", server, url, pong, err)
		}
	}

	// discovery.servers on the front-end lists every publisher.
	names, err := CallAs[[]string](client, "discovery.servers")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < sites {
		t.Errorf("servers = %v", names)
	}
}

// TestConcurrentMixedWorkload hammers one server with concurrent traffic
// across protocols, services, and identities; run under -race this is
// the framework's thread-safety proof.
func TestConcurrentMixedWorkload(t *testing.T) {
	srv, c := startFull(t)
	if err := srv.Files.Grant("/data", AccessRead, []string{EntryAny}, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	_ = c

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proto := []string{"xmlrpc", "jsonrpc", "soap"}[g%3]
			cl, err := Dial(srv.URL(), WithProtocol(proto), WithSession(sess.ID))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 40; i++ {
				switch i % 4 {
				case 0:
					if _, err := CallAs[[]string](cl, "system.list_methods"); err != nil {
						errs <- fmt.Errorf("%s list: %w", proto, err)
						return
					}
				case 1:
					if _, _, err := cl.FileReadChunk("/data/events.bin", 0, 128); err != nil {
						errs <- fmt.Errorf("%s read: %w", proto, err)
						return
					}
				case 2:
					if _, err := CallAs[string](cl, "system.whoami"); err != nil {
						errs <- fmt.Errorf("%s whoami: %w", proto, err)
						return
					}
				case 3:
					if _, err := CallAs[map[string]any](cl, "shell.cmd", fmt.Sprintf("echo g%d-i%d", g, i)); err != nil {
						errs <- fmt.Errorf("%s shell: %w", proto, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestManyServersOneProcess exercises resource hygiene: dozens of
// full servers started and stopped in one process must not leak
// goroutines to the point of failure or collide on state.
func TestManyServersOneProcess(t *testing.T) {
	for i := 0; i < 12; i++ {
		srv, err := NewServer(Config{Name: fmt.Sprintf("ephemeral%d", i), LocalStation: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			srv.Close()
			t.Fatal(err)
		}
		c, err := Dial(srv.URL())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		if _, err := CallAs[string](c, "system.ping"); err != nil {
			t.Errorf("server %d: %v", i, err)
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
	}
}

// --- federated job dispatch (the meta-scheduler vertical slice) ---

// fedConfig builds one member of a job federation: jobs + shell sandbox +
// proxy service (delegation handoff) + its own station aggregated locally,
// publishing to a shared backbone station.
func fedConfig(t *testing.T, name, backbone string) Config {
	t.Helper()
	umap := filepath.Join(t.TempDir(), ".clarens_user_map")
	if err := os.WriteFile(umap, []byte("joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ;;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return Config{
		Name:               name,
		AdminDNs:           []string{adminDN.String()},
		FileRoot:           t.TempDir(),
		ShellUserMap:       umap,
		EnableProxy:        true,
		EnableJobs:         true,
		JobWorkers:         2,
		EnableFederation:   true,
		FederationPressure: 1,
		PeerPollInterval:   50 * time.Millisecond,
		LocalStation:       "127.0.0.1:0",
		StationAddrs:       []string{backbone},
	}
}

// startFederation boots n servers around a shared backbone station,
// allowlists every member as a delegation issuer on every other, and
// waits until every federated member sees its peers.
func startFederation(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Server {
	t.Helper()
	servers := bootFederation(t, n, mutate)
	// Issuer trust is explicit and separate from discovery: each member
	// allowlists its peers' RPC endpoints (only known after Start).
	urls := make([]string, len(servers))
	for i, srv := range servers {
		urls[i] = srv.RPCURL()
	}
	for _, srv := range servers {
		srv.TrustFederationIssuers(urls...)
	}
	waitPeersConverged(t, servers)
	return servers
}

// bootFederation starts n servers around a shared backbone station
// WITHOUT granting any issuer trust.
func bootFederation(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Server {
	t.Helper()
	backbone, err := monalisa.NewStation("fed-backbone", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backbone.Close() })

	servers := make([]*Server, n)
	for i := range servers {
		cfg := fedConfig(t, fmt.Sprintf("site%d", i), backbone.Addr().String())
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		// The backbone republishes into every member's local station, so
		// each aggregator sees the whole federation.
		udp, err := net.ResolveUDPAddr("udp", srv.StationAddr())
		if err != nil {
			t.Fatal(err)
		}
		backbone.Peer(udp)
		if err := srv.PublishServices(); err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return servers
}

// waitPeersConverged blocks until every federated member's peer table
// sees all the other federated members. Station gossip rides
// unacknowledged UDP, so a publish can be lost under load (the race
// detector makes this common); keep republishing while waiting.
func waitPeersConverged(t *testing.T, servers []*Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, srv := range servers {
		if srv.Federation == nil {
			continue
		}
		for srv.Federation.Stats().Peers < countFederated(servers)-1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s sees %d peers", srv.Name(), srv.Federation.Stats().Peers)
			}
			for _, s := range servers {
				s.PublishServices()
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
}

func countFederated(servers []*Server) int {
	n := 0
	for _, s := range servers {
		if s.Jobs != nil {
			n++
		}
	}
	return n
}

// drainBurst submits jobs equal sleep payloads on srv as userDN and
// returns how long the burst took to fully drain (all terminal).
func drainBurst(t *testing.T, srv *Server, jobs int, payload string) (time.Duration, []string) {
	t.Helper()
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	b := c.Batch()
	for i := 0; i < jobs; i++ {
		b.Add("job.submit", payload, 0, 0)
	}
	start := time.Now()
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		ids = append(ids, r.Result.(string))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, id := range ids {
			j, ok := srv.Jobs.Get(id)
			if !ok {
				t.Fatalf("job %s lost", id)
			}
			if jobsvc.Terminal(j.State) {
				done++
			}
		}
		if done == len(ids) {
			return time.Since(start), ids
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst not drained: %d/%d done", done, len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederationDrainsBurstFasterThanOneServer is the acceptance path: a
// saturated server forwards queued jobs to idle peers; the burst drains
// measurably faster than the same burst on a lone server; forwarded jobs
// run on the peers as the submitting DN; and the submitting server's
// job.status/job.output answer for remote jobs transparently.
func TestFederationDrainsBurstFasterThanOneServer(t *testing.T) {
	const burst = 24
	const payload = "sleep 0.2 && echo fed"

	// Baseline: one server, federation off, same workers, same burst.
	solo, err := NewServer(func() Config {
		cfg := fedConfig(t, "solo", "")
		cfg.EnableFederation = false
		cfg.StationAddrs = nil
		cfg.LocalStation = ""
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if err := solo.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	soloTime, _ := drainBurst(t, solo, burst, payload)

	// Federation: three servers, six workers total.
	servers := startFederation(t, 3, nil)
	front := servers[0]
	fedTime, ids := drainBurst(t, front, burst, payload)

	t.Logf("drain: solo=%v federated=%v", soloTime, fedTime)
	if fedTime >= soloTime*4/5 {
		t.Errorf("federated drain %v not measurably below solo %v", fedTime, soloTime)
	}
	st := front.Federation.Stats()
	if st.Forwarded == 0 {
		t.Fatal("no jobs were forwarded")
	}

	// Remote jobs carried the owner's identity: peers executed as the
	// submitting DN, resolved through their own user maps.
	remoteRan := 0
	for _, peer := range servers[1:] {
		jobs, err := peer.Jobs.List("", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.Owner != userDN.String() {
				t.Errorf("peer %s job owner = %q, want %q", peer.Name(), j.Owner, userDN)
			}
			if j.LocalUser != "joe" {
				t.Errorf("peer %s local_user = %q", peer.Name(), j.LocalUser)
			}
			remoteRan++
		}
	}
	if remoteRan == 0 {
		t.Error("no jobs ran on peers")
	}

	// Transparent results on the submitting server, wherever the job ran.
	c, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, _ := front.NewSessionFor(userDN)
	c.SetSession(sess.ID)
	sawForwarded := false
	for _, id := range ids {
		st, err := CallAs[map[string]any](c, "job.status", id)
		if err != nil {
			t.Fatal(err)
		}
		if st["state"] != "done" {
			t.Errorf("job %s state = %v", id, st["state"])
		}
		out, err := CallAs[map[string]any](c, "job.output", id)
		if err != nil {
			t.Fatal(err)
		}
		if out["stdout"] != "fed\n" || out["exit_code"] != 0 {
			t.Errorf("job %s output = %v (peer=%v)", id, out, st["peer"])
		}
		if _, ok := st["peer"]; ok {
			sawForwarded = true
		}
	}
	if !sawForwarded {
		t.Error("no job.status carried a peer binding")
	}
}

// TestFederationPeerDownAtForwardTime: with the only peer dead, queued
// work stays local and completes — the scheduler must not strand jobs on
// an unreachable peer.
func TestFederationPeerDownAtForwardTime(t *testing.T) {
	servers := startFederation(t, 2, nil)
	front, peer := servers[0], servers[1]
	peer.Close() // peer dies; its discovery record is still cached

	_, ids := drainBurst(t, front, 8, "sleep 0.05 && echo local")
	for _, id := range ids {
		j, _ := front.Jobs.Get(id)
		if j.State != jobsvc.StateDone {
			t.Errorf("job %s = %s", id, j.State)
		}
		if j.Peer != "" {
			t.Errorf("job %s still bound to dead peer %q", id, j.Peer)
		}
	}
}

// TestFederationPeerDiesAfterAccept: jobs already accepted by a peer are
// re-queued locally once the peer stops answering, and still complete.
func TestFederationPeerDiesAfterAccept(t *testing.T) {
	servers := startFederation(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.JobWorkers = 1 // build queue pressure fast
		}
	})
	front, peer := servers[0], servers[1]

	c, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, _ := front.NewSessionFor(userDN)
	c.SetSession(sess.ID)
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := CallAs[string](c, "job.submit", "sleep 0.4 && echo survived")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wait for at least one acceptance, then kill the peer.
	deadline := time.Now().Add(10 * time.Second)
	for front.Federation.Stats().Forwarded == 0 {
		if time.Now().After(deadline) {
			t.Fatal("nothing forwarded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	peer.Close()

	for _, id := range ids {
		st, err := CallAs[map[string]any](c, "job.wait", id, 30)
		if err != nil {
			t.Fatal(err)
		}
		if st["state"] != "done" {
			t.Errorf("job %s = %v after peer death", id, st["state"])
		}
	}
	// At least part of the forwarded work came back through the fallback
	// path (jobs the peer finished before dying pull back normally).
	if st := front.Federation.Stats(); st.Fallbacks == 0 && st.PulledBack == 0 {
		t.Errorf("stats = %+v: expected fallbacks or pull-backs", st)
	}
}

// TestFederationDelegationRejectedStaysLocal: a peer that cannot perform
// the delegation handoff (no proxy service) never receives work; jobs
// run locally instead.
func TestFederationDelegationRejectedStaysLocal(t *testing.T) {
	servers := startFederation(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.EnableFederation = false
			cfg.EnableProxy = false // login_delegated unavailable
		}
	})
	front, peer := servers[0], servers[1]

	_, ids := drainBurst(t, front, 8, "sleep 0.05 && echo stayed")
	for _, id := range ids {
		j, _ := front.Jobs.Get(id)
		if j.State != jobsvc.StateDone {
			t.Errorf("job %s = %s", id, j.State)
		}
	}
	if jobs, _ := peer.Jobs.List("", ""); len(jobs) != 0 {
		t.Errorf("peer accepted %d jobs despite rejected delegation", len(jobs))
	}
	if st := front.Federation.Stats(); st.Forwarded != 0 {
		t.Errorf("stats = %+v, want zero forwarded", st)
	}
}

// TestFederationUntrustedIssuerRefused: discovery alone never confers
// issuer trust. A peer that has not allowlisted the submitting server
// refuses its delegation handoff — even though its discovery cache knows
// the submitter — so no work lands there and jobs complete locally.
func TestFederationUntrustedIssuerRefused(t *testing.T) {
	servers := bootFederation(t, 2, nil) // no TrustFederationIssuers calls
	waitPeersConverged(t, servers)
	front, peer := servers[0], servers[1]

	_, ids := drainBurst(t, front, 8, "sleep 0.05 && echo untrusted")
	for _, id := range ids {
		j, _ := front.Jobs.Get(id)
		if j.State != jobsvc.StateDone {
			t.Errorf("job %s = %s", id, j.State)
		}
	}
	if jobs, _ := peer.Jobs.List("", ""); len(jobs) != 0 {
		t.Errorf("peer accepted %d jobs from an untrusted issuer", len(jobs))
	}
	if st := front.Federation.Stats(); st.Forwarded != 0 {
		t.Errorf("stats = %+v, want zero forwarded", st)
	}
}

// TestFederationStatsSectionMatchesGauges: the "federation" system.stats
// section and the clarens.federation.<key> gauges come from one table,
// so every section key has a gauge with the same value.
func TestFederationStatsSectionMatchesGauges(t *testing.T) {
	srv := bootFederation(t, 1, func(i int, cfg *Config) { cfg.PeerPollInterval = time.Hour })[0]
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sess, _ := srv.NewSessionFor(adminDN)
	c.SetSession(sess.ID)
	sys, err := CallAs[map[string]any](c, "system.stats")
	if err != nil {
		t.Fatal(err)
	}
	section, _ := sys["federation"].(map[string]any)
	if len(section) == 0 {
		t.Fatalf("system.stats has no federation section: %v", sys)
	}
	gauges := srv.Core().Telemetry().GaugeValues()
	for key, v := range section {
		g, ok := gauges["clarens.federation."+key]
		if n, isInt := v.(int); !ok || !isInt || g != float64(n) {
			t.Errorf("section %s = %v (%T), gauge = %v (registered: %v)", key, v, v, g, ok)
		}
	}
}

// TestFederationArtifactPullBack is the federated staging acceptance
// path: a job with multi-hundred-KiB output executes on a peer, the
// watch loop re-stages the peer's artifact locally, and the submitting
// server serves the full stream — digest-checked — through both
// file.read chunk iteration and HTTP GET, under the owner's session.
func TestFederationArtifactPullBack(t *testing.T) {
	servers := startFederation(t, 2, func(i int, cfg *Config) {
		cfg.FederationPressure = -1 // forward whenever a peer is idle
	})
	site0, site1 := servers[0], servers[1]

	c, err := Dial(site0.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sess, err := site0.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	// Park site0's two workers so the artifact job must forward.
	blockers := make([]string, 2)
	for i := range blockers {
		id, err := CallAs[string](c, "job.submit", "sleep 3", 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		blockers[i] = id
	}
	waitFor := time.Now().Add(5 * time.Second)
	for site0.Jobs.Stats().Running < 2 {
		if time.Now().After(waitFor) {
			t.Fatal("blockers never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	id, err := CallAs[string](c, "job.submit", "seq 120000") // ~810 KiB stdout
	if err != nil {
		t.Fatal(err)
	}
	// job.wait observes the LOCAL record, so a terminal answer means the
	// result (artifacts included) has been pulled back and re-staged.
	st, err := c.JobWait(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st["state"] != "done" {
		t.Fatalf("status = %v", st)
	}
	if st["peer"] != "site1" {
		t.Fatalf("peer = %v, want the job executed on site1", st["peer"])
	}
	if n := site1.Jobs.Stats().Done; n == 0 {
		t.Error("site1 reports no completed jobs")
	}

	out, err := CallAs[map[string]any](c, "job.output", id)
	if err != nil {
		t.Fatal(err)
	}
	if tr, _ := out["truncated"].(bool); !tr {
		t.Fatalf("output = %v, want truncated with artifact", out)
	}
	arts, _ := out["artifacts"].([]any)
	if len(arts) != 1 {
		t.Fatalf("artifacts = %#v", out["artifacts"])
	}
	ref, _ := arts[0].(map[string]any)
	path, _ := ref["path"].(string)
	wantMD5, _ := ref["md5"].(string)
	size, _ := ref["size"].(int)
	// The reference names the LOCAL re-staged tree, scoped to this job's
	// local id — shadow records converge to the local artifact shape.
	if path != "/jobs/"+id+"/stdout" {
		t.Fatalf("artifact path = %q, want the local tree", path)
	}

	var viaRPC bytes.Buffer
	if n, err := c.FetchFile(path, 0, &viaRPC); err != nil || int(n) != size {
		t.Fatalf("FetchFile = %d, %v (want %d)", n, err, size)
	}
	sum := md5.Sum(viaRPC.Bytes())
	if hex.EncodeToString(sum[:]) != wantMD5 {
		t.Error("re-staged artifact digest mismatch")
	}
	var viaHTTP bytes.Buffer
	if _, err := c.FetchFileHTTP(path, 0, &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), viaRPC.Bytes()) {
		t.Error("HTTP GET and file.read disagree on the re-staged artifact")
	}
	// And the transparent helper sees the full stream.
	full, err := c.JobOutput(id)
	if err != nil || full.Truncated || len(full.Stdout) != size {
		t.Errorf("JobOutput = %d bytes truncated=%v, %v", len(full.Stdout), full.Truncated, err)
	}
	if st := site0.Federation.Stats(); st.ArtifactBytes == 0 {
		t.Error("federation ArtifactBytes gauge never moved")
	}
}

// TestFederatedTraceAssembly is the flight-recorder acceptance path: a
// force-sampled trace submits a burst of jobs on the origin, some of
// which the meta-scheduler forwards to the peer; trace.get on the ORIGIN
// then returns ONE merged span tree covering both servers — the origin's
// dispatch spans, the peer's forwarded job.submit, and the peer's
// synthetic job.exec span — assembled over the recorded forward edges.
func TestFederatedTraceAssembly(t *testing.T) {
	servers := startFederation(t, 2, nil)
	front, peer := servers[0], servers[1]

	traceID := NewTraceID()
	c, err := Dial(front.URL(), WithTrace(traceID), WithTraceSample())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := front.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	const jobs = 10
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		id, err := CallAs[string](c, "job.submit", "sleep 0.2 && echo traced", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// The sample header must have promoted the trace on the origin
	// immediately — that's the bit the forward carries to the peer.
	if !front.Core().Spans().Sampled(traceID) {
		t.Fatal("force-sampled trace not in the origin's span store")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, id := range ids {
			if j, ok := front.Jobs.Get(id); ok && jobsvc.Terminal(j.State) {
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst not drained: %d/%d done", done, len(ids))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if front.Federation.Stats().Forwarded == 0 {
		t.Fatal("no jobs were forwarded; federated assembly not exercised")
	}

	// The origin recorded the forward edge, and the peer kept the trace
	// sampled (the force bit rode the forwarded multicall).
	if links := front.Core().Spans().Links(traceID); len(links) == 0 {
		t.Fatal("origin recorded no forward edges for the trace")
	}
	if !peer.Core().Spans().Sampled(traceID) {
		t.Fatal("peer did not adopt the force-sample bit for the forwarded trace")
	}

	// trace.get on the ORIGIN returns one merged cross-server tree.
	ac, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	asess, err := front.NewSessionFor(adminDN)
	if err != nil {
		t.Fatal(err)
	}
	ac.SetSession(asess.ID)
	doc, err := CallAs[map[string]any](ac, "trace.get", traceID)
	if err != nil {
		t.Fatal(err)
	}
	if doc["trace"] != traceID {
		t.Fatalf("merged doc trace = %v, want %s", doc["trace"], traceID)
	}
	if errs, ok := doc["errors"]; ok {
		t.Fatalf("assembly reported peer errors: %v", errs)
	}

	spans, _ := doc["spans"].([]any)
	perServer := map[string]int{}
	methods := map[string]bool{}
	for _, e := range spans {
		m, _ := e.(map[string]any)
		if m["trace"] != traceID {
			t.Fatalf("span from foreign trace in merged tree: %v", m)
		}
		srv, _ := m["server"].(string)
		perServer[srv]++
		if meth, _ := m["method"].(string); meth != "" {
			methods[meth] = true
		}
	}
	if perServer["site0"] == 0 || perServer["site1"] == 0 {
		t.Fatalf("merged tree spans per server = %v, want both site0 and site1", perServer)
	}
	if !methods["job.submit"] || !methods["job.exec"] {
		t.Errorf("merged tree methods = %v, want job.submit and job.exec", methods)
	}
	srvList, _ := doc["servers"].([]any)
	if len(srvList) != 2 {
		t.Errorf("servers = %v, want [site0 site1]", srvList)
	}

	// The same merged document is reachable over plain HTTP for humans.
	links, _ := doc["links"].([]any)
	if len(links) == 0 {
		t.Error("merged doc carries no forward links")
	}
}
