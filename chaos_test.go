//go:build chaos

package clarens

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clarens/internal/jobsvc"
	"clarens/internal/monalisa"
)

// --- chaos harness: real clarens-server subprocesses killed with SIGKILL ---
//
// These tests exercise failure modes that cannot be simulated in-process:
// a hard kill (no deferred cleanup, no graceful drain) against the real
// binary, with recovery asserted through the public surfaces only.

var (
	chaosBuildOnce sync.Once
	chaosServerBin string
	chaosBuildErr  error
)

// serverBinary builds cmd/clarens-server once per test process and
// returns the binary path.
func serverBinary(t *testing.T) string {
	t.Helper()
	chaosBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "clarens-chaos")
		if err != nil {
			chaosBuildErr = err
			return
		}
		bin := filepath.Join(dir, "clarens-server")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/clarens-server")
		if out, err := cmd.CombinedOutput(); err != nil {
			chaosBuildErr = fmt.Errorf("build clarens-server: %v\n%s", err, out)
			return
		}
		chaosServerBin = bin
	})
	if chaosBuildErr != nil {
		t.Fatal(chaosBuildErr)
	}
	return chaosServerBin
}

// serverProc is one clarens-server subprocess with its stdout captured
// line by line, so tests can wait for startup markers and the minted
// session token.
type serverProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	mu   sync.Mutex
	out  []string
	done chan struct{}
}

func startServerProc(t *testing.T, bin string, args ...string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProc{t: t, cmd: cmd, done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.out = append(p.out, sc.Text())
			p.mu.Unlock()
		}
		cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	return p
}

// kill delivers SIGKILL — no signal handler runs, no drain, no fsync
// beyond what already happened — and waits for the process to be reaped.
func (p *serverProc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}

// waitLine blocks until a stdout line matches re and returns it.
func (p *serverProc) waitLine(re string, timeout time.Duration) string {
	p.t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(timeout)
	seen := 0
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for ; seen < len(p.out); seen++ {
			if rx.MatchString(p.out[seen]) {
				line := p.out[seen]
				p.mu.Unlock()
				return line
			}
		}
		p.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.t.Fatalf("no stdout line matched %q; output:\n%s", re, strings.Join(p.out, "\n"))
	return ""
}

// reserveAddr grabs an ephemeral localhost port and releases it, so a
// subprocess can bind the same address (and a revived one can rebind it).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// mintedSession extracts the token from the "-mint-session" stdout line.
func mintedSession(t *testing.T, p *serverProc) string {
	t.Helper()
	line := p.waitLine(`^session \S+ minted for `, 15*time.Second)
	return strings.Fields(line)[1]
}

// TestChaosSIGKILLMidBurstLosesNoAcknowledgedWrites is the crash-safety
// acceptance path: with -db-fsync=always, every write the server
// acknowledged before a SIGKILL must be present after a restart on the
// same data directory — and the restart itself proves torn-tail
// recovery, because the WAL was cut off mid-record with no Close.
func TestChaosSIGKILLMidBurstLosesNoAcknowledgedWrites(t *testing.T) {
	bin := serverBinary(t)
	dataDir := t.TempDir()
	addr := reserveAddr(t)
	args := []string{
		"-addr", addr, "-data", dataDir, "-db-fsync", "always",
		"-mint-session", userDN.String(),
		"-portal=false", "-metrics=false", "-push=false", "-proxy=false",
	}

	proc := startServerProc(t, bin, args...)
	c, err := Dial("http://"+addr, WithSession(mintedSession(t, proc)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Burst acknowledged writes; once enough are in, SIGKILL lands
	// asynchronously while further sends are on the wire.
	const killAfter = 64
	acked := 0
	for i := 0; ; i++ {
		if _, err := CallAs[string](c, "message.send", userDN.String(), fmt.Sprintf("burst-%d", i), "payload"); err != nil {
			break // the kill interrupted this (unacknowledged) send
		}
		acked++
		if acked == killAfter {
			go proc.kill()
		}
		if acked > 50_000 {
			t.Fatal("server survived the SIGKILL")
		}
	}
	if acked < killAfter {
		t.Fatalf("only %d sends acknowledged before the burst failed", acked)
	}
	proc.kill() // wait for the process to be fully gone before rebinding

	// Restart on the same data directory. Open must recover the log —
	// truncating any torn tail the kill left — or this Fatals in main.
	proc2 := startServerProc(t, bin, args...)
	c2, err := Dial("http://"+addr, WithSession(mintedSession(t, proc2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n, err := CallAs[int](c2, "message.count")
	if err != nil {
		t.Fatal(err)
	}
	// >= not ==: the send in flight at kill time may have committed
	// without its acknowledgement reaching the client. Acknowledged
	// writes lost would show as n < acked.
	if n < acked {
		t.Fatalf("acknowledged-write loss: %d messages survived the SIGKILL, %d were acknowledged", n, acked)
	}
	t.Logf("SIGKILL after %d acknowledged sends: %d messages recovered", acked, n)
}

// scrapeGauge fetches /metrics and returns the value of the named
// gauge, or ok=false if the line is absent.
func scrapeGauge(t *testing.T, baseURL, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable gauge line %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestChaosFederationPeerKilledAndRevived kills a real peer server out
// from under a 3-member federation mid-burst: the dead peer's circuit
// breaker opens (observable on the submitting server's /metrics), every
// job still reaches a terminal state through the fallback path, and
// reviving the peer on the same address closes the breaker again.
func TestChaosFederationPeerKilledAndRevived(t *testing.T) {
	bin := serverBinary(t)
	backbone, err := monalisa.NewStation("chaos-backbone", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backbone.Close()

	// site0 (submits, 1 worker, metrics on) and site2 (healthy peer)
	// in-process; site1 is the victim subprocess.
	mkMember := func(name string) *Server {
		cfg := fedConfig(t, name, backbone.Addr().String())
		cfg.JobWorkers = 1
		if name == "site0" {
			cfg.EnableMetrics = true
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		udp, err := net.ResolveUDPAddr("udp", srv.StationAddr())
		if err != nil {
			t.Fatal(err)
		}
		backbone.Peer(udp)
		if err := srv.PublishServices(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	front := mkMember("site0")
	healthy := mkMember("site2")

	umap := filepath.Join(t.TempDir(), ".clarens_user_map")
	if err := os.WriteFile(umap, []byte("joe : "+userDN.String()+" ;;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrB := reserveAddr(t)
	argsB := []string{
		"-addr", addrB, "-name", "site1",
		"-root", t.TempDir(), "-usermap", umap,
		"-jobs", "-job-workers", "4", "-federation",
		"-publish", "-stations", backbone.Addr().String(),
		"-federation-issuers", front.RPCURL() + "," + healthy.RPCURL(),
		"-portal=false",
	}
	victim := startServerProc(t, bin, argsB...)
	line := victim.waitLine(`rpc endpoint \S+\)`, 15*time.Second)
	victimRPC := regexp.MustCompile(`rpc endpoint (\S+)\)`).FindStringSubmatch(line)[1]
	front.TrustFederationIssuers(front.RPCURL(), healthy.RPCURL(), victimRPC)
	healthy.TrustFederationIssuers(front.RPCURL(), healthy.RPCURL(), victimRPC)

	// Wait until the submitting member sees both peers. Station gossip is
	// unacknowledged UDP; keep republishing the in-process members (the
	// subprocess republishes on its own schedule).
	deadline := time.Now().Add(30 * time.Second)
	for front.Federation.Stats().Peers < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("site0 sees %d peers, want 2", front.Federation.Stats().Peers)
		}
		front.PublishServices()
		healthy.PublishServices()
		time.Sleep(100 * time.Millisecond)
	}

	// Park site2's only worker so forwarded work lands on the victim.
	cH, err := Dial(healthy.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer cH.Close()
	sessH, err := healthy.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	cH.SetSession(sessH.ID)
	if _, err := CallAs[string](cH, "job.submit", "sleep 30", 100, 0); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for healthy.Jobs.Stats().Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("site2 blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Burst on site0 (single worker, pressure 1): the queue spills to the
	// victim. Kill it only once work is bound there.
	c, err := Dial(front.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := front.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := CallAs[string](c, "job.submit", "sleep 0.5 && echo chaos")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		bound := false
		jobs, err := front.Jobs.List("", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			// Peer is set when the forward is claimed, RemoteID only
			// once site1 has accepted the job.
			if j.Peer == "site1" && j.RemoteID != "" {
				bound = true
			}
		}
		if bound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no job was ever forwarded to the victim: %+v", front.Federation.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	victim.kill()

	// The victim's breaker opens — observable on site0's /metrics (1 while
	// open, 0.5 while a recovery probe is allowed through).
	const gauge = "clarens_federation_breaker_site1"
	deadline = time.Now().Add(30 * time.Second)
	for {
		v, ok := scrapeGauge(t, front.URL(), gauge)
		if ok && v >= 0.5 {
			t.Logf("%s = %v after SIGKILL", gauge, v)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never opened after the peer died (now %v)", gauge, v)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Every burst job still terminates: jobs stranded on the dead peer
	// fall back into site0's local queue.
	deadline = time.Now().Add(90 * time.Second)
	for {
		done := 0
		for _, id := range ids {
			j, ok := front.Jobs.Get(id)
			if !ok {
				t.Fatalf("job %s lost", id)
			}
			if jobsvc.Terminal(j.State) {
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d jobs terminal after peer death", done, len(ids))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st := front.Federation.Stats(); st.Forwarded == 0 {
		t.Fatalf("stats = %+v: nothing was ever forwarded", st)
	}

	// Revive the victim on the same address: the half-open probe succeeds
	// and the breaker closes again.
	revived := startServerProc(t, bin, argsB...)
	revived.waitLine(`rpc endpoint \S+\)`, 15*time.Second)
	deadline = time.Now().Add(60 * time.Second)
	for {
		v, ok := scrapeGauge(t, front.URL(), gauge)
		if ok && v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v: breaker never re-closed after revival", gauge, v)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
