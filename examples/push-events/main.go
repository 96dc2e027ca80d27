// Push events: the /ws plane replacing the polling surfaces. Instead of
// spinning on job.status (or message.poll, or scraping gauges), a client
// opens one WebSocket subscription against the server's event bus and
// the server pushes matching events as they happen.
//
// The program:
//
//  1. starts a server with the job service and the push endpoint (/ws,
//     on by default),
//
//  2. subscribes as the analyst to "type=job.*" — every job lifecycle
//     event (job.state transitions, job.artifact stagings) the ACL and
//     ownership rules let the analyst see,
//
//  3. submits a small pipeline of shell jobs,
//
//  4. prints the pushed events as they arrive — queued, running, done,
//     plus any staged-artifact notices — until every job is terminal,
//     without a single status poll.
//
//     go run ./examples/push-events
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"clarens"
)

const jobs = 4

var analystDN = clarens.MustParseDN("/O=gae/OU=People/CN=Analyst")

func main() {
	dir, err := os.MkdirTemp("", "clarens-push")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	umap := filepath.Join(dir, ".clarens_user_map")
	if err := os.WriteFile(umap, []byte("analyst : "+analystDN.String()+" ;;\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	srv, err := clarens.NewServer(clarens.Config{
		Name:         "push-demo",
		FileRoot:     dir,
		ShellUserMap: umap,
		EnableJobs:   true,
		JobWorkers:   2,
		AdminDNs:     []string{analystDN.String()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server at %s, push events at %s/ws\n\n", srv.URL(), srv.URL())

	c, err := clarens.Dial(srv.URL())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sess, err := srv.NewSessionFor(analystDN)
	if err != nil {
		log.Fatal(err)
	}
	c.SetSession(sess.ID)

	// One subscription covers the whole job lifecycle; the session's ACL
	// pins it to the job module and ownership scopes the delivery.
	sub, err := c.Subscribe("type=job.*")
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < jobs; i++ {
		id, err := clarens.CallAs[string](c, "job.submit", fmt.Sprintf("sleep 0.%d && echo result-%d", i+1, i), 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %s\n", id)
	}
	fmt.Println("\npushed events (no polling):")

	terminal := map[string]bool{}
	for ev := range sub.Events() {
		switch ev.Type {
		case "job.state":
			fmt.Printf("  seq %3d  %-12s job %s -> %s\n",
				ev.Seq, ev.Type, ev.Tags["job_id"], ev.Tags["state"])
			switch ev.Tags["state"] {
			case "done", "failed", "cancelled":
				terminal[ev.Tags["job_id"]] = true
			}
		case "job.artifact":
			fmt.Printf("  seq %3d  %-12s job %s staged %s\n",
				ev.Seq, ev.Type, ev.Tags["job_id"], ev.Data["path"])
		case clarens.EventLagged:
			fmt.Printf("  (lagged: %v events dropped)\n", ev.Data["dropped"])
		default:
			fmt.Printf("  seq %3d  %s %v\n", ev.Seq, ev.Type, ev.Tags)
		}
		if len(terminal) == jobs {
			break
		}
	}
	fmt.Printf("\nall %d jobs terminal — every transition arrived as a push event\n", jobs)
}
