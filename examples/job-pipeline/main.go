// Job pipeline: the Grid Analysis Environment workload the related work
// layered on top of Clarens (Ali et al., "Resource Management Services
// for a Grid Analysis Environment") — asynchronous fan-out analysis jobs
// scheduled against one server.
//
// The program:
//
//  1. starts a Clarens server with the job subsystem enabled (priority
//     queue, worker pool, per-owner fair share, durable state),
//
//  2. stages synthetic "event" shards into the submitter's sandbox with a
//     preparation job,
//
//  3. fans out one analysis job per shard (a sandboxed grep counting
//     trigger hits), higher-priority shards first,
//
//  4. collects completion notices from the store-and-forward message
//     queue (message.wait — the paper's §6 IM architecture) instead of
//     polling,
//
//  5. gathers per-shard results with job.output and prints the aggregate
//     plus the scheduler's own job.stats counters,
//
//  6. runs a merge job whose output far exceeds the inline limit: the
//     full stream is staged as a fileservice artifact under
//     /jobs/<id>/, read-ACL'd to the submitting DN, and fetched back
//     over the streaming path (Client.JobOutput follows the reference
//     transparently; file.read chunk iteration / HTTP GET under the
//     hood) instead of riding an RPC envelope.
//
//     go run ./examples/job-pipeline
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"clarens"
)

const shards = 8

func main() {
	root, err := os.MkdirTemp("", "clarens-jobs-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	umap := filepath.Join(root, ".clarens_user_map")
	analyst := "/O=gae/OU=People/CN=Analyst"
	if err := os.WriteFile(umap, []byte("analyst : "+analyst+" ;;\n"), 0o644); err != nil {
		log.Fatal(err)
	}

	srv, err := clarens.NewServer(clarens.Config{
		Name:            "gae-tier2",
		FileRoot:        root,
		ShellUserMap:    umap,
		EnableMessaging: true,
		EnableJobs:      true,
		JobWorkers:      4,
		JobMaxPerOwner:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server %s at %s\n", srv.Name(), srv.URL())

	sess, err := srv.NewSessionFor(clarens.MustParseDN(analyst))
	if err != nil {
		log.Fatal(err)
	}
	c, err := clarens.Dial(srv.URL())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	c.SetSession(sess.ID)

	// Stage: one preparation job writes the event shards into the sandbox.
	// Every 3rd event carries the "TRIGGER" tag the analysis looks for.
	var stage []string
	for s := 0; s < shards; s++ {
		var lines []string
		for e := 0; e < 30; e++ {
			tag := "minbias"
			if (s+e)%3 == 0 {
				tag = "TRIGGER"
			}
			lines = append(lines, fmt.Sprintf("echo event-%03d %s >> shard%d.dat", e, tag, s))
		}
		stage = append(stage, strings.Join(lines, " && "))
	}
	stageID, err := clarens.CallAs[string](c, "job.submit", strings.Join(stage, " && "))
	if err != nil {
		log.Fatal(err)
	}
	waitTerminal(c, map[string]bool{stageID: true})
	fmt.Printf("staged %d shards (job %s)\n", shards, short(stageID))

	// Fan out: one analysis job per shard. Later shards get higher
	// priority to show the queue ordering at work.
	pending := make(map[string]bool)
	shardOf := make(map[string]int)
	for s := 0; s < shards; s++ {
		id, err := clarens.CallAs[string](c, "job.submit", fmt.Sprintf("grep TRIGGER shard%d.dat", s), s, 1)
		if err != nil {
			log.Fatal(err)
		}
		pending[id] = true
		shardOf[id] = s
	}
	fmt.Printf("submitted %d analysis jobs\n", len(pending))

	// Collect: block on the message queue until every job announced a
	// terminal state.
	waitTerminal(c, pending)

	// Gather per-shard trigger counts. JobOutput follows staged-artifact
	// references transparently, so this loop is oblivious to whether a
	// shard's output fit inline.
	total := 0
	for id, s := range shardOf {
		out, err := c.JobOutput(id)
		if err != nil {
			log.Fatal(err)
		}
		hits := strings.Count(out.Stdout, "TRIGGER")
		total += hits
		fmt.Printf("  shard %d: %2d trigger hits (job %s, exit %d)\n", s, hits, short(id), out.ExitCode)
	}
	fmt.Printf("total trigger hits: %d\n", total)

	// Merge step: concatenate every shard plus a large synthetic event
	// dump — way past the 64 KiB inline limit — and collect the shard
	// files themselves as artifacts. The result comes back over the
	// streaming artifact path, not the RPC envelope.
	mergeCmd := "cat"
	for s := 0; s < shards; s++ {
		mergeCmd += fmt.Sprintf(" shard%d.dat", s)
	}
	mergeID, err := clarens.CallAs[string](c, "job.submit", mergeCmd+" && seq 300000", 10, 0,
		[]any{"shard*.dat"})
	if err != nil {
		log.Fatal(err)
	}
	waitTerminal(c, map[string]bool{mergeID: true})
	merged, err := c.JobOutput(mergeID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge job %s: %d bytes of stdout fetched via the artifact path (truncated=%v)\n",
		short(mergeID), len(merged.Stdout), merged.Truncated)
	for _, a := range merged.Artifacts {
		fmt.Printf("  artifact %-12s %8d bytes  md5 %s  %s\n", a.Name, a.Size, a.MD5[:8], a.Path)
	}
	// The same bytes are one HTTP GET away (zero-copy sendfile path).
	if len(merged.Artifacts) > 0 {
		var buf strings.Builder
		if _, err := c.FetchFileHTTP(merged.Artifacts[0].Path, 0, &buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("HTTP GET %s -> %d bytes\n", c.FileURL(merged.Artifacts[0].Path), buf.Len())
	}

	stats, err := clarens.CallAs[map[string]any](c, "job.stats")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler: %v done, %v failed, %v workers, %.1f jobs/s, %v artifact bytes staged\n",
		stats["done"], stats["failed"], stats["workers"], stats["throughput_per_s"], stats["artifact_bytes"])
}

// waitTerminal drains job.* notifications via message.wait until every id
// in pending has reached a terminal state.
func waitTerminal(c *clarens.Client, pending map[string]bool) {
	for len(pending) > 0 {
		msgs, err := clarens.CallAs[[]any](c, "message.wait", 0, 10000)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range msgs {
			msg, _ := m.(map[string]any)
			subject, _ := msg["subject"].(string)
			if !strings.HasPrefix(subject, "job.") {
				continue
			}
			var note struct {
				ID    string `json:"id"`
				State string `json:"state"`
			}
			body, _ := msg["body"].(string)
			if err := json.Unmarshal([]byte(body), &note); err != nil {
				continue
			}
			if pending[note.ID] {
				delete(pending, note.ID)
			}
			// Acknowledge so the notice is not redelivered.
			if id, ok := msg["id"].(string); ok {
				c.Call("message.ack", id)
			}
		}
	}
}

func short(id string) string {
	if i := strings.IndexByte(id, '-'); i >= 0 && len(id) > i+1 {
		return id[i+1:]
	}
	return id
}
