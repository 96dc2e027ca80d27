package shellsvc

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clarens/internal/acl"
	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlrpc"
)

var (
	adminDN = pki.MustParseDN("/O=caltech/OU=People/CN=Admin")
	joeDN   = pki.MustParseDN("/DC=org/DC=doegrids/OU=People/CN=Joe User")
	cmsDN   = pki.MustParseDN("/O=cern/OU=People/CN=Cms Person")
	noneDN  = pki.MustParseDN("/O=nowhere/CN=Unmapped")
)

const userMapText = `
# Example .clarens_user_map (paper §2.5):
joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ;;
cmspool : ; cms ;
multi : /O=a/CN=X | /O=b/CN=Y ; g1, g2 ; future, use
`

func TestParseUserMap(t *testing.T) {
	um, err := ParseUserMap(strings.NewReader(userMapText))
	if err != nil {
		t.Fatal(err)
	}
	ms := um.Mappings()
	if len(ms) != 3 {
		t.Fatalf("mappings = %d", len(ms))
	}
	if ms[0].LocalUser != "joe" || len(ms[0].DNs) != 1 {
		t.Errorf("m0 = %+v", ms[0])
	}
	if ms[1].LocalUser != "cmspool" || len(ms[1].Groups) != 1 || ms[1].Groups[0] != "cms" {
		t.Errorf("m1 = %+v", ms[1])
	}
	if len(ms[2].DNs) != 2 || len(ms[2].Groups) != 2 || len(ms[2].Reserved) != 2 {
		t.Errorf("m2 = %+v", ms[2])
	}
}

func TestParseUserMapErrors(t *testing.T) {
	for _, bad := range []string{
		"nouser-line",
		": /O=x/CN=y ;;",
		"joe : not-a-dn ;;",
	} {
		if _, err := ParseUserMap(strings.NewReader(bad)); err == nil {
			t.Errorf("map %q should be rejected", bad)
		}
	}
}

type fakeGroups map[string][]string

func (f fakeGroups) IsMember(group string, dn pki.DN) bool {
	for _, m := range f[group] {
		if m == dn.String() {
			return true
		}
	}
	return false
}

func TestResolve(t *testing.T) {
	um, _ := ParseUserMap(strings.NewReader(userMapText))
	groups := fakeGroups{"cms": {cmsDN.String()}}

	if u, ok := um.Resolve(joeDN, groups); !ok || u != "joe" {
		t.Errorf("joe = %q %v", u, ok)
	}
	if u, ok := um.Resolve(cmsDN, groups); !ok || u != "cmspool" {
		t.Errorf("cms = %q %v", u, ok)
	}
	if _, ok := um.Resolve(noneDN, groups); ok {
		t.Error("unmapped DN resolved")
	}
	if _, ok := um.Resolve(nil, groups); ok {
		t.Error("anonymous resolved")
	}
	// Prefix mapping: a whole OU maps to one pool account.
	um2, _ := ParseUserMap(strings.NewReader("pool : /DC=org/DC=doegrids/OU=People ;;"))
	if u, ok := um2.Resolve(joeDN, nil); !ok || u != "pool" {
		t.Errorf("prefix map = %q %v", u, ok)
	}
}

func TestLoadUserMapFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), UserMapFileName)
	os.WriteFile(path, []byte(userMapText), 0o644)
	if _, err := LoadUserMap(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadUserMap(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file must error")
	}
}

type fixture struct {
	srv *core.Server
	svc *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	srv, err := core.NewServer(core.Config{AdminDNs: []string{adminDN.String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	um, err := ParseUserMap(strings.NewReader(userMapText))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(srv, um, filepath.Join(t.TempDir(), "sandbox"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(svc); err != nil {
		t.Fatal(err)
	}
	// Authorize all authenticated users on the shell module.
	if err := srv.MethodACL().Set("shell", &acl.ACL{AllowDNs: []string{acl.EntryAny}}); err != nil {
		t.Fatal(err)
	}
	return &fixture{srv: srv, svc: svc}
}

func (f *fixture) call(t *testing.T, dn pki.DN, method string, params ...any) *rpc.Response {
	t.Helper()
	var buf bytes.Buffer
	codec := xmlrpc.New()
	if err := codec.EncodeRequest(&buf, &rpc.Request{Method: method, Params: params}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/rpc", &buf)
	req.Header.Set("Content-Type", "text/xml")
	if !dn.IsZero() {
		sess, err := f.srv.NewSessionFor(dn)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(core.SessionHeader, sess.ID)
	}
	w := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(w, req)
	resp, err := codec.DecodeResponse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func cmdResult(t *testing.T, resp *rpc.Response) map[string]any {
	t.Helper()
	if resp.Fault != nil {
		t.Fatalf("fault: %v", resp.Fault)
	}
	m, ok := resp.Result.(map[string]any)
	if !ok {
		t.Fatalf("result = %#v", resp.Result)
	}
	return m
}

func TestCmdEchoAndUser(t *testing.T) {
	f := newFixture(t)
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "echo hello grid"))
	if m["stdout"] != "hello grid\n" || m["exit_code"] != 0 || m["user"] != "joe" {
		t.Errorf("cmd = %#v", m)
	}
}

func TestCmdWhoami(t *testing.T) {
	f := newFixture(t)
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "whoami"))
	if m["stdout"] != "joe\n" {
		t.Errorf("whoami = %#v", m)
	}
}

func TestCmdFileOperations(t *testing.T) {
	f := newFixture(t)
	steps := []struct {
		line   string
		outSub string
		exit   int
	}{
		{"mkdir work", "", 0},
		{"cd work && pwd", "/work", 0},
		{"echo data line one > f.txt", "", 0},
		{"cat f.txt", "data line one", 0},
		{"echo more >> f.txt && wc f.txt", "2 4", 0},
		{"cp f.txt g.txt && ls", "f.txt", 0},
		{"grep more g.txt", "more", 0},
		{"grep absent g.txt", "", 1},
		{"mv g.txt h.txt && ls", "h.txt", 0},
		{"rm h.txt && ls", "f.txt", 0},
		{"cat missing.txt", "", 1},
		{"bogus-command", "", 127},
	}
	for _, step := range steps {
		m := cmdResult(t, f.call(t, joeDN, "shell.cmd", step.line))
		if m["exit_code"] != step.exit {
			t.Errorf("%q: exit = %v (stderr %q), want %d", step.line, m["exit_code"], m["stderr"], step.exit)
		}
		if step.outSub != "" && !strings.Contains(m["stdout"].(string), step.outSub) {
			t.Errorf("%q: stdout = %q, want substring %q", step.line, m["stdout"], step.outSub)
		}
	}
}

func TestCmdStatePersistsViaSandboxNotCwd(t *testing.T) {
	f := newFixture(t)
	// Each shell.cmd starts at the sandbox root ("created or re-used for
	// subsequent commands"): files persist, the working directory resets.
	cmdResult(t, f.call(t, joeDN, "shell.cmd", "mkdir d && touch d/x.txt"))
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "ls d"))
	if !strings.Contains(m["stdout"].(string), "x.txt") {
		t.Errorf("persisted file missing: %#v", m)
	}
	m = cmdResult(t, f.call(t, joeDN, "shell.cmd", "pwd"))
	if m["stdout"] != "/\n" {
		t.Errorf("fresh command should start at sandbox root, pwd = %q", m["stdout"])
	}
}

func TestSandboxEscapesBlocked(t *testing.T) {
	f := newFixture(t)
	for _, line := range []string{
		"cat ../../../etc/passwd",
		"ls ..",
		"cd .. && pwd",
		"cp /etc/passwd here",
		"echo x > ../escape.txt",
	} {
		m := cmdResult(t, f.call(t, joeDN, "shell.cmd", line))
		if m["exit_code"] == 0 {
			t.Errorf("%q should fail, got stdout %q", line, m["stdout"])
		}
	}
}

func TestSandboxesIsolatedPerUser(t *testing.T) {
	f := newFixture(t)
	f.srv.VO().CreateGroup("cms", adminDN)
	f.srv.VO().AddMember("cms", adminDN, cmsDN.String())
	cmdResult(t, f.call(t, joeDN, "shell.cmd", "touch joes-file"))
	m := cmdResult(t, f.call(t, cmsDN, "shell.cmd", "ls"))
	if strings.Contains(m["stdout"].(string), "joes-file") {
		t.Error("cms user can see joe's sandbox")
	}
}

func TestUnmappedUserRejected(t *testing.T) {
	f := newFixture(t)
	resp := f.call(t, noneDN, "shell.cmd", "echo hi")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied {
		t.Errorf("fault = %+v", resp.Fault)
	}
	resp = f.call(t, nil, "shell.cmd", "echo hi")
	if resp.Fault == nil {
		t.Error("anonymous caller must be rejected")
	}
}

func TestCmdInfo(t *testing.T) {
	f := newFixture(t)
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd_info"))
	if m["user"] != "joe" {
		t.Errorf("user = %v", m["user"])
	}
	sandbox, _ := m["sandbox"].(string)
	if !strings.HasPrefix(sandbox, "/") || !strings.Contains(sandbox, "joe") {
		t.Errorf("sandbox = %q", sandbox)
	}
	if cmds, ok := m["commands"].([]any); !ok || len(cmds) < 10 {
		t.Errorf("commands = %#v", m["commands"])
	}
}

func TestWhoamiLocal(t *testing.T) {
	f := newFixture(t)
	resp := f.call(t, joeDN, "shell.whoami_local")
	if !rpc.Equal(resp.Result, "joe") {
		t.Errorf("whoami_local = %#v (fault %v)", resp.Result, resp.Fault)
	}
}

func TestGroupMappedUser(t *testing.T) {
	f := newFixture(t)
	f.srv.VO().CreateGroup("cms", adminDN)
	f.srv.VO().AddMember("cms", adminDN, cmsDN.String())
	resp := f.call(t, cmsDN, "shell.whoami_local")
	if !rpc.Equal(resp.Result, "cmspool") {
		t.Errorf("group-mapped user = %#v (fault %v)", resp.Result, resp.Fault)
	}
}

func TestRealExecMode(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("/bin/sh not available")
	}
	f := newFixture(t)
	f.svc.AllowRealExec = true
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "echo real-exec && pwd"))
	if !strings.Contains(m["stdout"].(string), "real-exec") {
		t.Errorf("real exec stdout = %q", m["stdout"])
	}
	if m["exit_code"] != 0 {
		t.Errorf("exit = %v, stderr=%q", m["exit_code"], m["stderr"])
	}
}

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		`echo hello world`:        {"echo", "hello", "world"},
		`echo "hello world"`:      {"echo", "hello world"},
		`echo 'single quoted'`:    {"echo", "single quoted"},
		`cat "file with space"`:   {"cat", "file with space"},
		`  spaced   out  tokens `: {"spaced", "out", "tokens"},
	}
	for in, want := range cases {
		got, err := tokenize(in)
		if err != nil {
			t.Errorf("tokenize(%q): %v", in, err)
			continue
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("tokenize(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := tokenize(`echo "unterminated`); err == nil {
		t.Error("unterminated quote must error")
	}
}

func TestHeadCommand(t *testing.T) {
	f := newFixture(t)
	cmdResult(t, f.call(t, joeDN, "shell.cmd", `echo "l1" > f && echo "l2" >> f && echo "l3" >> f`))
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "head -n 2 f"))
	if m["stdout"] != "l1\nl2\n" {
		t.Errorf("head = %q", m["stdout"])
	}
}

func TestNewValidation(t *testing.T) {
	srv, _ := core.NewServer(core.Config{})
	defer srv.Close()
	if _, err := New(srv, nil, t.TempDir()); err == nil {
		t.Error("nil user map must be rejected")
	}
}

func TestSeqStreamsLargeOutput(t *testing.T) {
	f := newFixture(t)
	// seq streams straight to the supplied writer — the job service's
	// spool path; exercise it through ExecStreamAs.
	var out, errw strings.Builder
	code, user, err := f.svc.ExecStreamAs(context.Background(), joeDN, "seq 3", &out, &errw)
	if err != nil || code != 0 || user != "joe" {
		t.Fatalf("seq = code %d user %q err %v", code, user, err)
	}
	if out.String() != "1\n2\n3\n" {
		t.Errorf("seq 3 = %q", out.String())
	}
	// FIRST LAST form plus redirection into a sandbox file.
	if code, _, _ := f.svc.ExecStreamAs(context.Background(), joeDN, "seq 5 7 > r.txt && cat r.txt", &out, &errw); code != 0 {
		t.Fatalf("redirect exit %d, stderr %q", code, errw.String())
	}
	if !strings.HasSuffix(out.String(), "5\n6\n7\n") {
		t.Errorf("redirected seq = %q", out.String())
	}
	m := cmdResult(t, f.call(t, joeDN, "shell.cmd", "seq bogus"))
	if m["exit_code"] == 0 {
		t.Error("seq with a non-number must fail")
	}
}

// countingWriter proves streaming: output arrives incrementally without
// a terminal buffer.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func TestExecStreamDoesNotBuffer(t *testing.T) {
	f := newFixture(t)
	w := &countingWriter{}
	var errw strings.Builder
	code, _, err := f.svc.ExecStreamAs(context.Background(), joeDN, "seq 100000", w, &errw)
	if err != nil || code != 0 {
		t.Fatalf("code %d err %v (%s)", code, err, errw.String())
	}
	if w.n < 500_000 {
		t.Errorf("streamed %d bytes, want the full sequence", w.n)
	}
}

func TestCollectInto(t *testing.T) {
	f := newFixture(t)
	dest := t.TempDir()
	cmdResult(t, f.call(t, joeDN, "shell.cmd",
		"mkdir results && echo alpha > results/a.dat && echo beta > results/b.dat && echo skip > results/c.txt && echo top > top.dat"))
	files, skipped, err := f.svc.CollectInto(joeDN, []string{"results/*.dat", "top.dat"}, dest, 0)
	if err != nil || len(skipped) != 0 {
		t.Fatal(err, skipped)
	}
	var names []string
	for _, cf := range files {
		names = append(names, cf.Name)
	}
	if strings.Join(names, ",") != "a.dat,b.dat,top.dat" {
		t.Fatalf("collected = %v", names)
	}
	data, err := os.ReadFile(filepath.Join(dest, "a.dat"))
	if err != nil || string(data) != "alpha\n" {
		t.Errorf("a.dat = %q, %v", data, err)
	}
	// Size and digest are computed during the copy.
	sum := md5.Sum([]byte("alpha\n"))
	if files[0].Size != 6 || files[0].MD5 != hex.EncodeToString(sum[:]) {
		t.Errorf("a.dat described as %+v", files[0])
	}
	// Escaping patterns are ignored, not an error — and collect nothing.
	files, skipped, err = f.svc.CollectInto(joeDN, []string{"../*", "/etc/passwd", "../../*"}, t.TempDir(), 0)
	if err != nil || len(files) != 0 || len(skipped) != 0 {
		t.Errorf("escape patterns collected %v, %v, %v", files, skipped, err)
	}
	// The per-file cap skips oversized files and reports them.
	files, skipped, err = f.svc.CollectInto(joeDN, []string{"results/*.dat"}, t.TempDir(), 3)
	if err != nil || len(files) != 0 {
		t.Errorf("capped collect = %v, %v", files, err)
	}
	if strings.Join(skipped, ",") != "a.dat,b.dat" {
		t.Errorf("skipped = %v", skipped)
	}
}

func TestCollectIntoRefusesSymlinkEscapes(t *testing.T) {
	f := newFixture(t)
	// A payload plants symlinks pointing outside the sandbox (possible
	// under AllowRealExec); collection must not follow them.
	secretDir := t.TempDir()
	secret := filepath.Join(secretDir, "secret.dat")
	os.WriteFile(secret, []byte("server-only"), 0o600)
	sandbox, err := f.svc.Sandbox("joe")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(secret, filepath.Join(sandbox, "leak.dat")); err != nil {
		t.Skip("symlinks unavailable:", err)
	}
	if err := os.Symlink(secretDir, filepath.Join(sandbox, "leakdir")); err != nil {
		t.Fatal(err)
	}
	dest := t.TempDir()
	files, _, err := f.svc.CollectInto(joeDN, []string{"*.dat", "leakdir/*.dat", "leakdir"}, dest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("symlinked content collected: %+v", files)
	}
	if entries, _ := os.ReadDir(dest); len(entries) != 0 {
		t.Errorf("destination not empty: %v", entries)
	}
}

func TestSeqOverflowClamped(t *testing.T) {
	f := newFixture(t)
	// Hostile extremes must hit the cap, not wrap the span computation
	// and run ~1.8e19 iterations.
	w := &countingWriter{}
	var errw strings.Builder
	done := make(chan int, 1)
	go func() {
		code, _, _ := f.svc.ExecStreamAs(context.Background(), joeDN, "seq -9000000000000000000 9000000000000000000", w, &errw)
		done <- code
	}()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("clamped seq exit = %d (%s)", code, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("seq with overflowing bounds did not terminate: clamp bypassed")
	}
}
