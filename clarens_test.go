package clarens

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clarens/internal/rpc"
)

var (
	adminDN = MustParseDN("/O=caltech/OU=People/CN=Admin")
	userDN  = MustParseDN("/DC=org/DC=doegrids/OU=People/CN=Joe User")
)

// fullConfig builds a Config with every subsystem enabled.
func fullConfig(t *testing.T) Config {
	t.Helper()
	root := t.TempDir()
	os.MkdirAll(filepath.Join(root, "data"), 0o755)
	os.WriteFile(filepath.Join(root, "data", "events.bin"), bytes.Repeat([]byte("evt0"), 1024), 0o644)
	umap := filepath.Join(t.TempDir(), ".clarens_user_map")
	os.WriteFile(umap, []byte("joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ;;\n"), 0o644)
	return Config{
		Name:            "testsrv",
		AdminDNs:        []string{adminDN.String()},
		FileRoot:        root,
		ShellUserMap:    umap,
		EnableProxy:     true,
		EnableMessaging: true,
		LocalStation:    "127.0.0.1:0",
		EnablePortal:    true,
	}
}

func startFull(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(fullConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return srv, c
}

func TestFullServerHasMoreThan30Methods(t *testing.T) {
	srv, c := startFull(t)
	methods, err := CallAs[[]string](c, "system.list_methods")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 4 serializes "more than 30 strings".
	if len(methods) <= 30 {
		t.Errorf("full server has %d methods, paper needs >30", len(methods))
	}
	for _, want := range []string{"system.list_methods", "file.read", "shell.cmd", "proxy.store", "discovery.find", "vo.create_group", "acl.check"} {
		found := false
		for _, m := range methods {
			if m == want {
				found = true
			}
		}
		if !found {
			t.Errorf("method %s missing", want)
		}
	}
	_ = srv
}

func TestAllProtocolsAgainstLiveServer(t *testing.T) {
	srv, _ := startFull(t)
	for _, proto := range []string{"xmlrpc", "jsonrpc", "soap"} {
		t.Run(proto, func(t *testing.T) {
			c, err := Dial(srv.URL(), WithProtocol(proto))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got, err := CallAs[string](c, "system.echo", "cross-protocol")
			if err != nil {
				t.Fatal(err)
			}
			if got != "cross-protocol" {
				t.Errorf("echo = %q", got)
			}
			pong, err := CallAs[string](c, "system.ping")
			if err != nil || pong != "pong" {
				t.Errorf("ping = %q %v", pong, err)
			}
		})
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(""); err == nil {
		t.Error("empty URL must be rejected")
	}
	if _, err := Dial("http://x", WithProtocol("bogus")); err == nil {
		t.Error("unknown protocol must be rejected")
	}
	c, err := Dial("http://host:1234")
	if err != nil {
		t.Fatal(err)
	}
	if c.URL() != "http://host:1234/rpc" {
		t.Errorf("default path = %q", c.URL())
	}
	c2, _ := Dial("http://host:1234/custom/endpoint")
	if c2.URL() != "http://host:1234/custom/endpoint" {
		t.Errorf("custom path = %q", c2.URL())
	}
}

func TestFaultSurfacesAsError(t *testing.T) {
	_, c := startFull(t)
	_, err := c.Call("no.such.method")
	if err == nil {
		t.Fatal("expected fault")
	}
	f, ok := err.(*rpc.Fault)
	if !ok || f.Code != rpc.CodeMethodNotFound {
		t.Errorf("err = %#v", err)
	}
}

func TestFileServiceEndToEnd(t *testing.T) {
	srv, c := startFull(t)
	// Grant the user read access, establish a session, read the file.
	if err := srv.Files.Grant("/data", 0, []string{userDN.String()}, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	data, err := c.FileReadAll("/data/events.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4096 {
		t.Errorf("read %d bytes", len(data))
	}
	sum := md5.Sum(data)
	remote, err := CallAs[string](c, "file.md5", "/data/events.bin")
	if err != nil {
		t.Fatal(err)
	}
	if remote != hex.EncodeToString(sum[:]) {
		t.Error("md5 mismatch between local and remote")
	}
	ls, err := c.FileLs("/data")
	if err != nil || len(ls) != 1 {
		t.Errorf("ls = %v %v", ls, err)
	}
}

func TestShellEndToEnd(t *testing.T) {
	srv, c := startFull(t)
	sess, _ := srv.NewSessionFor(userDN)
	c.SetSession(sess.ID)
	res, err := CallAs[map[string]any](c, "shell.cmd", "echo from-test > hello.txt && cat hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if res["exit_code"] != 0 || !strings.Contains(res["stdout"].(string), "from-test") {
		t.Errorf("shell result = %#v", res)
	}
	// The sandbox is visible through the file service, as the paper says.
	sandbox := res["sandbox"].(string)
	data, _, err := c.FileReadChunk(sandbox+"/hello.txt", 0, -1)
	if err != nil {
		// requires a read grant: admins bypass; grant the user.
		srv.Files.Grant(sandbox, 0, []string{userDN.String()}, nil)
		data, _, err = c.FileReadChunk(sandbox+"/hello.txt", 0, -1)
		if err != nil {
			t.Fatalf("file.read of sandbox: %v", err)
		}
	}
	if !strings.Contains(string(data), "from-test") {
		t.Errorf("sandbox file = %q", data)
	}
}

func TestProxyLoginEndToEnd(t *testing.T) {
	srv, c := startFull(t)
	ca, _ := NewCA(MustParseDN("/O=testgrid/CN=CA"))
	user, err := ca.IssueUser(userDN, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(user, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	keyPEM, _ := proxy.KeyPEM()
	bundle := append(proxy.ChainPEM(), keyPEM...)

	if _, err := c.Call("proxy.store", bundle, "pw123"); err != nil {
		t.Fatal(err)
	}
	token, err := c.ProxyLogin(userDN, "pw123")
	if err != nil {
		t.Fatal(err)
	}
	if token == "" || c.Session() != token {
		t.Error("session token not installed")
	}
	who, err := CallAs[string](c, "system.whoami")
	if err != nil || who != userDN.String() {
		t.Errorf("whoami = %q %v", who, err)
	}
	if err := c.Logout(); err != nil {
		t.Fatal(err)
	}
	if c.Session() != "" {
		t.Error("session not cleared after logout")
	}
	_ = srv
}

func TestDiscoverySelfPublication(t *testing.T) {
	srv, c := startFull(t)
	if err := srv.PublishServices(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var entries []map[string]any
	var err error
	for time.Now().Before(deadline) {
		entries, err = c.Discover("testsrv/*")
		if err == nil && len(entries) >= 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 5 {
		t.Fatalf("discovered %d entries", len(entries))
	}
	for _, e := range entries {
		if e["url"] != srv.RPCURL() {
			t.Errorf("entry url = %v, want %v", e["url"], srv.RPCURL())
		}
	}
}

func TestVOAdministrationOverClient(t *testing.T) {
	srv, c := startFull(t)
	sess, _ := srv.NewSessionFor(adminDN)
	c.SetSession(sess.ID)
	if _, err := c.Call("vo.create_group", "cms"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("vo.add_member", "cms", userDN.String()); err != nil {
		t.Fatal(err)
	}
	ok, err := CallAs[bool](c, "vo.is_member", "cms", userDN.String())
	if err != nil || !ok {
		t.Errorf("is_member = %v %v", ok, err)
	}
}

func TestCallAsyncCompletesAll(t *testing.T) {
	_, c := startFull(t)
	res := c.CallAsync(8, 200, "system.ping")
	if res.Errors != 0 {
		t.Fatalf("errors: %d (%v)", res.Errors, res.FirstErr)
	}
	if res.Calls != 200 || res.Rate() <= 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestTypedHelperErrors(t *testing.T) {
	_, c := startFull(t)
	if _, err := CallAs[string](c, "system.list_methods"); err == nil {
		t.Error("CallAs[string] on array must error")
	}
	if _, err := CallAs[bool](c, "system.ping"); err == nil {
		t.Error("CallAs[bool] on string must error")
	}
	if _, err := CallAs[int](c, "system.ping"); err == nil {
		t.Error("CallAs[int] on string must error")
	}
	if _, err := CallAs[[]any](c, "system.ping"); err == nil {
		t.Error("CallAs[[]any] on string must error")
	}
	if _, err := CallAs[map[string]any](c, "system.ping"); err == nil {
		t.Error("CallAs[map[string]any] on string must error")
	}
	if _, err := CallAs[[]string](c, "system.ping"); err == nil {
		t.Error("CallAs[[]string] on string must error")
	}
}

func TestShellRequiresFileRootOrDataDir(t *testing.T) {
	umap := filepath.Join(t.TempDir(), "m")
	os.WriteFile(umap, []byte("joe : /O=x/CN=j ;;\n"), 0o644)
	if _, err := NewServer(Config{ShellUserMap: umap}); err == nil {
		t.Error("shell without FileRoot/DataDir must be rejected")
	}
}

func TestPortalServedOnFullServer(t *testing.T) {
	srv, _ := startFull(t)
	c, _ := Dial(srv.URL()) // for transport reuse only
	defer c.Close()
	resp, err := c.http.Get(srv.URL() + "/portal/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("portal = %d", resp.StatusCode)
	}
}

// TestJobMessaging walks the §6 IM scenario over the public API: a user
// steers a NAT'd job through the store-and-forward message service.
func TestJobMessaging(t *testing.T) {
	srv, _ := startFull(t)
	jobDN := MustParseDN("/O=grid/OU=Services/CN=job\\/worker-1")

	userSess, _ := srv.NewSessionFor(userDN)
	userClient, _ := Dial(srv.URL(), WithSession(userSess.ID))
	defer userClient.Close()
	jobSess, _ := srv.NewSessionFor(jobDN)
	jobClient, _ := Dial(srv.URL(), WithSession(jobSess.ID))
	defer jobClient.Close()

	// User -> job: steering command.
	id, err := CallAs[string](userClient, "message.send", jobDN.String(), "steer", "reduce batch size")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := CallAs[[]any](jobClient, "message.poll")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("job poll = %v %v", msgs, err)
	}
	if ok, err := CallAs[bool](jobClient, "message.ack", id); err != nil || !ok {
		t.Fatalf("ack = %v %v", ok, err)
	}
	// Job -> user: progress report (bi-directional, the §6 requirement).
	if _, err := CallAs[string](jobClient, "message.send", userDN.String(), "progress", "events=120000"); err != nil {
		t.Fatal(err)
	}
	n, err := CallAs[int](userClient, "message.count")
	if err != nil || n != 1 {
		t.Fatalf("user count = %d %v", n, err)
	}
}

func TestPersistentServerRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "persist", DataDir: dir, AdminDNs: []string{adminDN.String()}}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	srv.Core().VO().CreateGroup("cms", adminDN)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(srv2.URL(), WithSession(sess.ID))
	defer c.Close()
	who, err := CallAs[string](c, "system.whoami")
	if err != nil {
		t.Fatal(err)
	}
	if who != userDN.String() {
		t.Errorf("whoami after restart = %q — sessions must survive restarts (paper §2)", who)
	}
	groups, err := CallAs[[]string](c, "vo.groups")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range groups {
		if g == "cms" {
			found = true
		}
	}
	if !found {
		t.Error("VO group lost across restart")
	}
}

// spaces is an endless stream of ' ' bytes.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// A reply larger than rpc.MaxBodyBytes is an explicit error, not a
// silently truncated body handed to the codec.
func TestResponseOverLimitIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		io.Copy(w, io.LimitReader(spaces{}, rpc.MaxBodyBytes+1))
	}))
	defer srv.Close()
	c, err := Dial(srv.URL, WithRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("system.ping"); err == nil || !strings.Contains(err.Error(), "response exceeds 64 MiB") {
		t.Fatalf("err = %v", err)
	}
}
