package clarens

import (
	"fmt"
	"testing"
	"time"
)

// --- push events across the federation (the PR's acceptance path) ---

// runFederatedBurst drives one saturated-forwarding workload on a
// two-member federation and returns the submitting side's scheduler
// stats once every job (local and forwarded) is terminal.
func runFederatedBurst(t *testing.T, peerPush bool, jobs int) (forwarded, statusRPCs, pushEvents uint64, pushWatches int) {
	t.Helper()
	servers := startFederation(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.DisablePush = !peerPush
		}
	})
	drainBurst(t, servers[0], jobs, "sleep 0.2 && echo pushed")

	// Pull-back of the last remote result may trail the local job store
	// flipping terminal by one scheduler pass; settle before reading.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := servers[0].Federation.Stats()
		if st.PulledBack+st.Fallbacks >= st.Forwarded {
			return st.Forwarded, st.StatusRPCs, st.PushEvents, st.PushWatches
		}
		if time.Now().After(deadline) {
			t.Fatalf("forwarded jobs never finalized: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFederationPushCutsStatusPolling is the acceptance criterion: with
// the peer's /ws up, a federated job's state transitions reach the
// submitting server through its push subscription, and the watch loop
// issues strictly fewer job.status RPCs than the same workload against
// a peer without /ws (pure batch-poll fallback) — which must still
// drain every job.
func TestFederationPushCutsStatusPolling(t *testing.T) {
	const burst = 24

	pushFwd, pushRPCs, pushEvents, _ := runFederatedBurst(t, true, burst)
	if pushFwd == 0 {
		t.Fatal("push run: no jobs forwarded — workload did not saturate")
	}
	if pushEvents == 0 {
		t.Fatal("push run: no peer job events arrived over the WS subscription")
	}

	pollFwd, pollRPCs, pollEvents, pollWatches := runFederatedBurst(t, false, burst)
	if pollFwd == 0 {
		t.Fatal("poll run: no jobs forwarded — workload did not saturate")
	}
	// With the peer's /ws gone the watcher must fall back to batch
	// polling: no push subscriptions, no events, but every job done
	// (drainBurst already asserted completion).
	if pollEvents != 0 || pollWatches != 0 {
		t.Fatalf("poll run: push leaked through a peer without /ws: events=%d watches=%d",
			pollEvents, pollWatches)
	}

	if pushRPCs >= pollRPCs {
		t.Fatalf("push mode issued %d status RPCs, polling baseline %d — push must be strictly cheaper",
			pushRPCs, pollRPCs)
	}
	t.Logf("status RPCs: push=%d poll=%d (%.0f%% reduction), push events=%d",
		pushRPCs, pollRPCs, 100*(1-float64(pushRPCs)/float64(pollRPCs)), pushEvents)
}

// --- client auto-reconnect ---

// TestSubscribeReconnectResumes kills a subscription's transport out
// from under it and proves the client redials, resubscribes, marks the
// gap, and keeps delivering without replaying anything it already
// handed out.
func TestSubscribeReconnectResumes(t *testing.T) {
	srv, c := startFull(t)
	sess, err := srv.NewSessionFor(adminDN)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSession(sess.ID)

	sub, err := c.Subscribe("type=test.*")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	srv.Events().Publish(Event{Type: "test.ping", Tags: map[string]string{"n": "first"}})
	var first Event
	select {
	case first = <-sub.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery before the drop")
	}

	// Sever the transport behind the subscription's back.
	sub.mu.Lock()
	old := sub.conn
	sub.mu.Unlock()
	old.Close()

	// Events published while the client is down are gone (at-most-once);
	// keep publishing until the reconnected stream delivers a real event
	// again, not just the reconnect marker.
	var resumed []Event
	deadline := time.After(10 * time.Second)
	i := 0
	for len(resumed) == 0 || resumed[len(resumed)-1].Seq == 0 {
		i++
		srv.Events().Publish(Event{Type: "test.ping", Tags: map[string]string{"n": fmt.Sprint(i)}})
		select {
		case ev := <-sub.Events():
			resumed = append(resumed, ev)
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("delivery never resumed after transport drop")
		}
	}
	// Drain whatever else is in flight, then check the stream contract:
	// strictly increasing sequence numbers, no replay of the first event.
drain:
	for {
		select {
		case ev := <-sub.Events():
			resumed = append(resumed, ev)
		case <-time.After(100 * time.Millisecond):
			break drain
		}
	}
	last := first.Seq
	marked := false
	for _, ev := range resumed {
		if ev.Seq == 0 {
			marked = marked || ev.Type == EventLagged && ev.Data["reconnected"] == true
			continue
		}
		if ev.Seq <= last {
			t.Fatalf("duplicate or reordered event after reconnect: seq %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	sub.mu.Lock()
	reconnected := sub.conn != old
	sub.mu.Unlock()
	if !reconnected {
		t.Fatal("subscription never replaced its dead transport")
	}
	if !marked {
		t.Fatalf("no reconnect marker among the resumed events: %+v", resumed)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription failed permanently: %v", err)
	}
}
