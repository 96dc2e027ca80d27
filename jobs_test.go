package clarens

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"clarens/internal/jobsvc"
	"clarens/internal/rpc"
)

// jobConfig assembles a persistent server with the job subsystem and its
// collaborators (shell sandbox, messaging, database) enabled.
func jobConfig(t *testing.T, dataDir string) Config {
	t.Helper()
	root := t.TempDir()
	umap := filepath.Join(t.TempDir(), ".clarens_user_map")
	os.WriteFile(umap, []byte("joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ;;\n"), 0o644)
	return Config{
		Name:            "jobsrv",
		AdminDNs:        []string{adminDN.String()},
		DataDir:         dataDir,
		FileRoot:        root,
		ShellUserMap:    umap,
		EnableMessaging: true,
		EnableJobs:      true,
		JobWorkers:      2,
	}
}

func startJobServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(cfg)
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

// pollStatus polls job.status over RPC until the job is terminal.
func pollStatus(t *testing.T, c *Client, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := CallAs[map[string]any](c, "job.status", id)
		if err != nil {
			t.Fatal(err)
		}
		state, _ := st["state"].(string)
		if jobsvc.Terminal(state) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 10s", id, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobRoundTripOverRPC is the acceptance path: job.submit →
// job.status → job.output over real RPC, with the payload executed in the
// shell sandbox, persistence across a server restart on the same DataDir,
// and the completion notification delivered via message.poll.
func TestJobRoundTripOverRPC(t *testing.T) {
	dataDir := t.TempDir()
	cfg := jobConfig(t, dataDir)
	srv, c := startJobServer(t, cfg)
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	// Submit a sandbox payload that writes a file and reads it back.
	id, err := CallAs[string](c, "job.submit", "echo analysis-result > out.txt && cat out.txt")
	if err != nil {
		t.Fatal(err)
	}
	st := pollStatus(t, c, id)
	if st["state"] != "done" {
		t.Fatalf("status = %v", st)
	}
	if st["local_user"] != "joe" {
		t.Errorf("local_user = %v, want joe (user-map resolution)", st["local_user"])
	}

	out, err := CallAs[map[string]any](c, "job.output", id)
	if err != nil {
		t.Fatal(err)
	}
	if out["stdout"] != "analysis-result\n" || out["exit_code"] != 0 {
		t.Errorf("output = %v", out)
	}

	// Completion notification in the owner's message queue.
	msgs, err := CallAs[[]any](c, "message.poll")
	if err != nil {
		t.Fatal(err)
	}
	foundNotice := false
	for _, m := range msgs {
		msg, _ := m.(map[string]any)
		if msg["subject"] == "job.done" {
			body, _ := msg["body"].(string)
			if strings.Contains(body, id) {
				foundNotice = true
			}
		}
	}
	if !foundNotice {
		t.Errorf("no job.done notification for %s in %v", id, msgs)
	}

	// job.list shows the caller's job.
	list, err := CallAs[[]any](c, "job.list")
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %v, %v", list, err)
	}

	// Restart on the same database directory: the job record (and the
	// session) must survive.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := startJobServer(t, jobConfig(t, dataDir))
	_ = srv2
	c2.SetSession(sess.ID)
	st2, err := CallAs[map[string]any](c2, "job.status", id)
	if err != nil {
		t.Fatal(err)
	}
	if st2["state"] != "done" {
		t.Errorf("after restart state = %v, want done", st2["state"])
	}
	out2, err := CallAs[map[string]any](c2, "job.output", id)
	if err != nil || out2["stdout"] != "analysis-result\n" {
		t.Errorf("after restart output = %v, %v", out2, err)
	}
}

func TestJobOwnerOnlyAccess(t *testing.T) {
	cfg := jobConfig(t, t.TempDir())
	srv, c := startJobServer(t, cfg)
	sess, _ := srv.NewSessionFor(userDN)
	c.SetSession(sess.ID)
	id, err := CallAs[string](c, "job.submit", "echo private")
	if err != nil {
		t.Fatal(err)
	}
	pollStatus(t, c, id)

	// A different authenticated principal is refused.
	strangerDN := MustParseDN("/O=grid/OU=People/CN=Stranger")
	stranger, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	ssess, _ := srv.NewSessionFor(strangerDN)
	stranger.SetSession(ssess.ID)
	if _, err := CallAs[map[string]any](stranger, "job.status", id); err == nil {
		t.Error("stranger must not read another owner's job")
	} else if f, ok := err.(*rpc.Fault); !ok || f.Code != rpc.CodeAccessDenied {
		t.Errorf("err = %v, want access-denied fault", err)
	}
	if _, err := CallAs[[]any](stranger, "job.list"); err != nil {
		t.Fatal(err)
	} else if l, _ := CallAs[[]any](stranger, "job.list"); len(l) != 0 {
		t.Errorf("stranger sees %d jobs, want 0", len(l))
	}

	// Anonymous callers are refused outright.
	anon, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if _, err := CallAs[string](anon, "job.submit", "echo nope"); err == nil {
		t.Error("anonymous submit must fail")
	}

	// The server admin override sees everything.
	admin, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	asess, _ := srv.NewSessionFor(adminDN)
	admin.SetSession(asess.ID)
	st, err := CallAs[map[string]any](admin, "job.status", id)
	if err != nil || st["owner"] != userDN.String() {
		t.Errorf("admin status = %v, %v", st, err)
	}
	if l, err := CallAs[[]any](admin, "job.list"); err != nil || len(l) != 1 {
		t.Errorf("admin list = %v, %v", l, err)
	}
}

func TestJobCancelAndStatsOverRPC(t *testing.T) {
	cfg := jobConfig(t, t.TempDir())
	cfg.JobWorkers = 1
	srv, c := startJobServer(t, cfg)
	sess, _ := srv.NewSessionFor(userDN)
	c.SetSession(sess.ID)

	// A queued job behind a slow-ish one can be cancelled before it runs.
	// The built-in interpreter is fast, so cancel the tail of a burst and
	// accept either outcome for jobs that already started; the last job
	// is overwhelmingly likely still queued.
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := CallAs[string](c, "job.submit", "echo burst")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	last := ids[len(ids)-1]
	if _, err := CallAs[bool](c, "job.cancel", last); err != nil {
		t.Fatal(err)
	}
	st := pollStatus(t, c, last)
	if st["state"] != "cancelled" && st["state"] != "done" {
		t.Errorf("state = %v", st["state"])
	}
	for _, id := range ids[:len(ids)-1] {
		pollStatus(t, c, id)
	}
	stats, err := CallAs[map[string]any](c, "job.stats")
	if err != nil {
		t.Fatal(err)
	}
	done, _ := stats["done"].(int)
	cancelled, _ := stats["cancelled"].(int)
	if done+cancelled != 20 {
		t.Errorf("stats = %v, want done+cancelled = 20", stats)
	}
	if w, _ := stats["workers"].(int); w != 1 {
		t.Errorf("workers = %v", stats["workers"])
	}
}

// TestJobStatsSectionMatchesJobStats: system.stats carries the scheduler
// counters under "jobs" in exactly the shape job.stats returns them.
func TestJobStatsSectionMatchesJobStats(t *testing.T) {
	srv, c := startJobServer(t, jobConfig(t, t.TempDir()))
	sess, _ := srv.NewSessionFor(adminDN)
	c.SetSession(sess.ID)
	jobStats, err := CallAs[map[string]any](c, "job.stats")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := CallAs[map[string]any](c, "system.stats")
	if err != nil {
		t.Fatal(err)
	}
	section, _ := sys["jobs"].(map[string]any)
	for _, key := range []string{"uptime_s", "artifact_gc"} {
		if _, ok := section[key]; !ok {
			t.Errorf("system.stats.jobs lacks %s: %v", key, section)
		}
	}
	// The two calls may straddle a second boundary.
	if up, _ := section["uptime_s"].(int); up-jobStats["uptime_s"].(int) > 1 {
		t.Errorf("uptime_s = %d in system.stats, %d in job.stats", up, jobStats["uptime_s"])
	}
	section["uptime_s"] = jobStats["uptime_s"]
	if !reflect.DeepEqual(section, jobStats) {
		t.Errorf("system.stats.jobs = %v\njob.stats        = %v", section, jobStats)
	}
}

// TestJobsRequireShell verifies the assembly-time guard.
func TestJobsRequireShell(t *testing.T) {
	_, err := NewServer(Config{Name: "broken", EnableJobs: true})
	if err == nil || !strings.Contains(err.Error(), "ShellUserMap") {
		t.Errorf("err = %v, want ShellUserMap guard", err)
	}
}

// TestJobRecoveryRequeuesInterrupted exercises crash recovery through the
// public assembly: a running job is interrupted (its record persisted
// mid-run), and the rebuilt server re-queues and completes it.
func TestJobRecoveryRequeuesInterrupted(t *testing.T) {
	dataDir := t.TempDir()
	cfg := jobConfig(t, dataDir)
	srv, c := startJobServer(t, cfg)
	sess, _ := srv.NewSessionFor(userDN)
	c.SetSession(sess.ID)
	id, err := CallAs[string](c, "job.submit", "echo first-life")
	if err != nil {
		t.Fatal(err)
	}
	pollStatus(t, c, id)

	// Forge the crash: flip the persisted record back to running with
	// retry budget, as if the server died mid-attempt.
	j, ok := srv.Jobs.Get(id)
	if !ok {
		t.Fatal("job lost")
	}
	j.State = jobsvc.StateRunning
	j.Attempts = 1
	j.MaxRetries = 2
	j.Stdout = ""
	if err := srv.Core().Store().PutJSON("jobs", id, j); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	_, c2 := startJobServer(t, jobConfig(t, dataDir))
	c2.SetSession(sess.ID)
	st := pollStatus(t, c2, id)
	if st["state"] != "done" {
		t.Fatalf("recovered job = %v", st)
	}
	out, err := CallAs[map[string]any](c2, "job.output", id)
	if err != nil || out["stdout"] != "first-life\n" {
		t.Errorf("recovered output = %v, %v", out, err)
	}
	if a, _ := st["attempts"].(int); a != 2 {
		t.Errorf("attempts = %v, want 2 (interrupted attempt counted)", st["attempts"])
	}
}

// TestJobArtifactStagingEndToEnd is the staging acceptance path: a job
// whose output exceeds the inline limit keeps the full stream on disk —
// job.output returns the head with truncated=true plus an artifact
// reference, and fetching that reference via file.read chunk iteration
// and via HTTP GET yields byte-identical, digest-checked content.
func TestJobArtifactStagingEndToEnd(t *testing.T) {
	cfg := jobConfig(t, t.TempDir())
	srv, c := startJobServer(t, cfg)
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	// ~1.4 MiB of stdout: far past the 64 KiB inline limit.
	id, err := CallAs[string](c, "job.submit", "seq 200000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JobWait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	out, err := CallAs[map[string]any](c, "job.output", id)
	if err != nil {
		t.Fatal(err)
	}
	head, _ := out["stdout"].(string)
	if tr, _ := out["truncated"].(bool); !tr {
		t.Fatalf("truncated = %v, want true (head %d bytes)", out["truncated"], len(head))
	}
	if len(head) != 64<<10 {
		t.Errorf("head = %d bytes, want the 64 KiB inline limit", len(head))
	}
	arts, _ := out["artifacts"].([]any)
	if len(arts) != 1 {
		t.Fatalf("artifacts = %#v", out["artifacts"])
	}
	ref, _ := arts[0].(map[string]any)
	path, _ := ref["path"].(string)
	wantMD5, _ := ref["md5"].(string)
	size, _ := ref["size"].(int)
	if ref["name"] != "stdout" || path != "/jobs/"+id+"/stdout" || wantMD5 == "" || size <= 64<<10 {
		t.Fatalf("artifact ref = %#v", ref)
	}

	// Path 1: file.read chunk iteration (terminates on the eof flag).
	var viaRPC bytes.Buffer
	n, err := c.FetchFile(path, 0, &viaRPC)
	if err != nil || int(n) != size {
		t.Fatalf("FetchFile = %d bytes, %v (want %d)", n, err, size)
	}
	sum := md5.Sum(viaRPC.Bytes())
	if hex.EncodeToString(sum[:]) != wantMD5 {
		t.Error("file.read fetch digest mismatch")
	}
	if !strings.HasPrefix(viaRPC.String(), head) {
		t.Error("inline head is not a prefix of the staged stream")
	}

	// Path 2: HTTP GET streaming, byte-identical.
	var viaHTTP bytes.Buffer
	n, err = c.FetchFileHTTP(path, 0, &viaHTTP)
	if err != nil || int(n) != size {
		t.Fatalf("FetchFileHTTP = %d bytes, %v", n, err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), viaRPC.Bytes()) {
		t.Error("HTTP GET and file.read fetches differ")
	}
	// Resume at an offset via Range.
	var tail bytes.Buffer
	off := int64(size - 12345)
	if _, err := c.FetchFileHTTP(path, off, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), viaRPC.Bytes()[off:]) {
		t.Error("Range resume returned wrong bytes")
	}

	// The transparent client helper resolves the truncation.
	full, err := c.JobOutput(id)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Stdout) != size {
		t.Errorf("JobOutput = truncated %v, %d bytes", full.Truncated, len(full.Stdout))
	}

	// Access control: another authenticated DN can reach neither path.
	stranger, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	ssess, _ := srv.NewSessionFor(MustParseDN("/O=grid/OU=People/CN=Stranger"))
	stranger.SetSession(ssess.ID)
	if _, _, err := stranger.FileReadChunk(path, 0, 64); err == nil {
		t.Error("stranger fetched another owner's artifact via file.read")
	}
	if _, err := stranger.FetchFileHTTP(path, 0, io.Discard); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("stranger HTTP GET = %v, want 403", err)
	}

	// job.delete clears the record and the artifact tree.
	if ok, err := CallAs[bool](c, "job.delete", id); err != nil || !ok {
		t.Fatalf("job.delete = %v, %v", ok, err)
	}
	if _, err := CallAs[map[string]any](c, "job.status", id); err == nil {
		t.Error("record survived job.delete")
	}
	if _, _, err := c.FileReadChunk(path, 0, 64); err == nil {
		t.Error("artifact survived job.delete")
	}
}

// TestJobCollectsSandboxArtifacts: collect globs stage job-written
// sandbox files into the artifact tree.
func TestJobCollectsSandboxArtifacts(t *testing.T) {
	cfg := jobConfig(t, t.TempDir())
	srv, c := startJobServer(t, cfg)
	sess, _ := srv.NewSessionFor(userDN)
	c.SetSession(sess.ID)

	id, err := CallAs[string](c, "job.submit",
		"mkdir results && seq 50000 > results/hist.dat && echo summary-line > results/summary.txt",
		0, 0, []any{"results/*.dat", "results/*.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JobWait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	out, err := c.JobOutput(id)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]JobArtifact{}
	for _, a := range out.Artifacts {
		byName[a.Name] = a
	}
	hist, ok := byName["hist.dat"]
	if !ok || hist.Size == 0 {
		t.Fatalf("artifacts = %+v, want collected hist.dat", out.Artifacts)
	}
	data, err := c.FileReadAll(hist.Path)
	if err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(data)
	if hex.EncodeToString(sum[:]) != hist.MD5 || int64(len(data)) != hist.Size {
		t.Error("collected artifact content does not match its reference")
	}
	if sm, ok := byName["summary.txt"]; !ok {
		t.Error("summary.txt not collected")
	} else if b, err := c.FileReadAll(sm.Path); err != nil || string(b) != "summary-line\n" {
		t.Errorf("summary = %q, %v", b, err)
	}
}
