// Federated jobs: three Clarens servers as one scheduling fabric — the
// paper's global-service vision (§2.4 dynamic discovery, §2.6 proxy
// delegation) applied to the GAE meta-scheduler pattern (Ali et al.,
// cs/0504033): a saturated server forwards queued work to underloaded
// peers discovered at runtime, carrying the owner's identity with it.
//
// The program:
//
//  1. starts a backbone station and three federated servers, each with a
//     2-worker job pool, a proxy service (the delegation handoff), and a
//     local station aggregating the backbone's discovery stream,
//
//  2. saturates site0 with a burst of sleep jobs — far more than its own
//     pool can drain promptly,
//
//  3. watches the meta-scheduler forward the overflow: site0 polls its
//     peers' job.stats, claims the queued jobs farthest from a local
//     worker, logs each owner in on the peer via a one-time delegation
//     secret (proxy.login_delegated, verified by a callback to site0 —
//     which each site only honors because site0 is on its explicit
//     issuer allowlist), and submits the work there as the original DN,
//
//  4. waits for the burst to drain with job.wait on site0 — status and
//     output for forwarded jobs proxy to the executing peer and final
//     results are pulled back into site0's shadow records transparently,
//
//  5. prints where every job actually ran and the federation counters.
//
//     go run ./examples/federated-jobs
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"clarens"
	"clarens/internal/monalisa"
)

const (
	sites = 3
	burst = 18
)

var analystDN = clarens.MustParseDN("/O=gae/OU=People/CN=Analyst")

func member(name, backbone string) *clarens.Server {
	dir, err := os.MkdirTemp("", "clarens-fed-"+name)
	if err != nil {
		log.Fatal(err)
	}
	umap := filepath.Join(dir, ".clarens_user_map")
	if err := os.WriteFile(umap, []byte("analyst : "+analystDN.String()+" ;;\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	srv, err := clarens.NewServer(clarens.Config{
		Name:               name,
		FileRoot:           dir,
		ShellUserMap:       umap,
		EnableProxy:        true, // delegation handoff
		EnableJobs:         true,
		JobWorkers:         2,
		EnableFederation:   true,
		FederationPressure: 2,
		PeerPollInterval:   100 * time.Millisecond,
		LocalStation:       "127.0.0.1:0",
		StationAddrs:       []string{backbone},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	return srv
}

func main() {
	backbone, err := monalisa.NewStation("backbone", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer backbone.Close()

	servers := make([]*clarens.Server, sites)
	for i := range servers {
		srv := member(fmt.Sprintf("site%d", i), backbone.Addr().String())
		defer srv.Close()
		udp, err := net.ResolveUDPAddr("udp", srv.StationAddr())
		if err != nil {
			log.Fatal(err)
		}
		backbone.Peer(udp) // backbone republishes into every member
		if err := srv.PublishServices(); err != nil {
			log.Fatal(err)
		}
		servers[i] = srv
		fmt.Printf("started %-6s at %s\n", srv.Name(), srv.URL())
	}

	// Issuer trust is explicit: discovery finds peers, but each site only
	// honors delegated logins vouched for by allowlisted peer endpoints.
	urls := make([]string, sites)
	for i, srv := range servers {
		urls[i] = srv.RPCURL()
	}
	for _, srv := range servers {
		srv.TrustFederationIssuers(urls...)
	}

	front := servers[0]
	for front.Federation.Stats().Peers < sites-1 {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("\nsite0 discovered %d peer job services\n", front.Federation.Stats().Peers)

	// Saturate site0.
	c, err := clarens.Dial(front.URL())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sess, err := front.NewSessionFor(analystDN)
	if err != nil {
		log.Fatal(err)
	}
	c.SetSession(sess.ID)
	fmt.Printf("submitting a burst of %d jobs to site0 (2 local workers)...\n\n", burst)
	start := time.Now()
	ids := make([]string, burst)
	batch := c.Batch()
	for i := range ids {
		batch.Add("job.submit", fmt.Sprintf("sleep 0.3 && echo shard-%02d analyzed", i), 0, 0)
	}
	results, err := batch.Run()
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		ids[i] = r.Result.(string)
	}

	// Drain via job.wait; remote jobs answer transparently.
	where := map[string]int{}
	for _, id := range ids {
		st, err := c.JobWait(id, 60*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		site := "site0 (local)"
		if peer, ok := st["peer"].(string); ok {
			site = peer + " (forwarded)"
		}
		where[site]++
		out, err := clarens.CallAs[map[string]any](c, "job.output", id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s state=%-6v %q\n", site, st["state"], out["stdout"])
	}
	elapsed := time.Since(start)

	fmt.Printf("\nburst drained in %v (single 2-worker server would need ~%.1fs)\n",
		elapsed.Round(10*time.Millisecond), float64(burst)*0.3/2)
	for site, n := range where {
		fmt.Printf("  %-22s ran %d jobs\n", site, n)
	}
	st := front.Federation.Stats()
	fmt.Printf("federation: %d forwarded, %d results pulled back, %d fallbacks\n",
		st.Forwarded, st.PulledBack, st.Fallbacks)
}
