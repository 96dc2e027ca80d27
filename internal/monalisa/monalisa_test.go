package monalisa

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func newStation(t *testing.T, name string) *Station {
	t.Helper()
	st, err := NewStation(name, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// waitFor polls until cond() or the deadline; avoids flaky fixed sleeps.
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

func TestPublishIngestQuery(t *testing.T) {
	st := newStation(t, "station-1")
	pub, err := NewPublisher(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	rec := &Record{
		Farm: "caltech", Cluster: "tier2", Node: "node001",
		Params: map[string]float64{"cpu_load": 0.75, "disk_free_gb": 120},
		Tags:   map[string]string{"os": "linux24"},
	}
	if err := pub.Publish(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "record ingest", func() bool { return st.Len() == 1 })

	got := st.Query("caltech", "", "")
	if len(got) != 1 {
		t.Fatalf("query = %d records", len(got))
	}
	if got[0].Params["cpu_load"] != 0.75 || got[0].Tags["os"] != "linux24" {
		t.Errorf("record = %+v", got[0])
	}
	if len(st.Query("elsewhere", "", "")) != 0 {
		t.Error("farm filter leaked")
	}
	if len(st.Query("caltech", "tier2", "node001")) != 1 {
		t.Error("full-path query failed")
	}
	if len(st.Query("", "tier2", "")) != 1 {
		t.Error("cluster query failed")
	}
}

func TestLatestRecordWins(t *testing.T) {
	st := newStation(t, "s")
	st.Ingest(&Record{Farm: "f", Node: "n", Params: map[string]float64{"v": 1}})
	st.Ingest(&Record{Farm: "f", Node: "n", Params: map[string]float64{"v": 2}})
	if st.Len() != 1 {
		t.Fatalf("len = %d", st.Len())
	}
	if got := st.Query("f", "", "")[0].Params["v"]; got != 2 {
		t.Errorf("latest value = %v", got)
	}
}

func TestSubscription(t *testing.T) {
	st := newStation(t, "s")
	ch, cancel := st.Subscribe(func(r *Record) bool { return r.Farm == "wanted" })
	defer cancel()
	st.Ingest(&Record{Farm: "ignored", Node: "n"})
	st.Ingest(&Record{Farm: "wanted", Node: "n"})
	select {
	case rec := <-ch:
		if rec.Farm != "wanted" {
			t.Errorf("subscription delivered %q", rec.Farm)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription timeout")
	}
	cancel()
	// Cancel closes the channel; double-cancel is safe.
	cancel()
	if _, ok := <-ch; ok {
		// drain any buffered record, then expect close
		if _, ok := <-ch; ok {
			t.Error("channel not closed after cancel")
		}
	}
}

// TestStationIngestRacesCloseAndCancel runs Ingest against Close and
// subscription cancels: a send on a channel they closed would panic.
func TestStationIngestRacesCloseAndCancel(t *testing.T) {
	for round := 0; round < 10; round++ {
		st, err := NewStation("race", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var cancels []func()
		for i := 0; i < 4; i++ {
			_, cancel := st.Subscribe(nil)
			cancels = append(cancels, cancel)
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					st.Ingest(&Record{Farm: "f", Node: fmt.Sprint(j)})
				}
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, cancel := range cancels {
				cancel()
			}
		}()
		go func() {
			defer wg.Done()
			st.Close()
		}()
		wg.Wait()
	}
}

func TestPeerReplication(t *testing.T) {
	a := newStation(t, "a")
	b := newStation(t, "b")
	a.Peer(b.Addr())

	pub, err := NewPublisher(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Publish(&Record{Farm: "f", Node: "n", Params: map[string]float64{"x": 1}})

	waitFor(t, "replication to peer", func() bool { return b.Len() == 1 })
	if got := b.Query("f", "", ""); len(got) != 1 || got[0].Hops != 1 {
		t.Errorf("replicated record = %+v", got)
	}
}

func TestReplicationLoopBounded(t *testing.T) {
	// a <-> b mutual peering must not flood forever thanks to MaxHops.
	a := newStation(t, "a")
	b := newStation(t, "b")
	a.Peer(b.Addr())
	b.Peer(a.Addr())
	a.Ingest(&Record{Farm: "f", Node: "n"})
	waitFor(t, "replication", func() bool { return b.Len() == 1 })
	// Give the loop a moment; the hop limit stops it.
	time.Sleep(50 * time.Millisecond)
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("loop created records: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestNinetySitesAggregate(t *testing.T) {
	// The paper: "MonALISA was monitoring more than 90 sites". One station
	// aggregates 90 publishing sites.
	st := newStation(t, "central")
	pub, err := NewPublisher(st.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const sites = 90
	for i := 0; i < sites; i++ {
		err := pub.Publish(&Record{
			Farm:   fmt.Sprintf("site%02d", i),
			Node:   "gatekeeper",
			Params: map[string]float64{"nodes": float64(i % 100)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "90 sites", func() bool { return st.Len() == sites })
	if got := len(st.Farms()); got != sites {
		t.Errorf("farms = %d", got)
	}
}

func TestExpire(t *testing.T) {
	st := newStation(t, "s")
	st.Ingest(&Record{Farm: "old", Node: "n", Time: time.Now().Add(-time.Hour)})
	st.Ingest(&Record{Farm: "new", Node: "n"})
	if n := st.Expire(time.Minute); n != 1 {
		t.Errorf("expired = %d", n)
	}
	if st.Len() != 1 || len(st.Query("new", "", "")) != 1 {
		t.Error("wrong record expired")
	}
}

func TestQueryTTLFilter(t *testing.T) {
	st := newStation(t, "s")
	st.DefaultTTL = time.Minute
	st.Ingest(&Record{Farm: "stale", Node: "n", Time: time.Now().Add(-time.Hour)})
	if len(st.Query("", "", "")) != 0 {
		t.Error("stale record served despite DefaultTTL")
	}
}

func TestRecordValidation(t *testing.T) {
	bad := []Record{
		{},
		{Farm: "f"},
		{Farm: "f/slash", Node: "n"},
		{Farm: "f", Node: "n\nnewline"},
	}
	for _, r := range bad {
		if r.Validate() == nil {
			t.Errorf("record %+v should be invalid", r)
		}
	}
	ok := Record{Farm: "f", Cluster: "c", Node: "n"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if ok.Key() != "f/c/n" {
		t.Errorf("key = %q", ok.Key())
	}
}

func TestMalformedDatagramsIgnored(t *testing.T) {
	st := newStation(t, "s")
	pub, _ := NewPublisher(st.Addr())
	defer pub.Close()
	// Raw garbage straight at the socket.
	conn := pub.conn
	conn.WriteToUDP([]byte("not json"), st.Addr())
	conn.WriteToUDP([]byte(`{"farm":"","node":""}`), st.Addr())
	// A valid record still gets through afterwards.
	pub.Publish(&Record{Farm: "f", Node: "n"})
	waitFor(t, "valid record after garbage", func() bool { return st.Len() == 1 })
}

func TestPublisherValidation(t *testing.T) {
	st := newStation(t, "s")
	pub, _ := NewPublisher(st.Addr())
	defer pub.Close()
	if err := pub.Publish(&Record{}); err == nil {
		t.Error("invalid record must be rejected before sending")
	}
	big := &Record{Farm: "f", Node: "n", Tags: map[string]string{"blob": string(make([]byte, MaxDatagram))}}
	if err := pub.Publish(big); err == nil {
		t.Error("oversized record must be rejected")
	}
}

func TestStationCloseIdempotent(t *testing.T) {
	st, err := NewStation("s", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// Ingest after close is a no-op, not a panic.
	st.Ingest(&Record{Farm: "f", Node: "n"})
	if st.Len() != 0 {
		t.Error("ingest after close stored a record")
	}
}

func TestAddTarget(t *testing.T) {
	a := newStation(t, "a")
	b := newStation(t, "b")
	pub, _ := NewPublisher(a.Addr())
	defer pub.Close()
	pub.AddTarget(b.Addr())
	pub.Publish(&Record{Farm: "f", Node: "n"})
	waitFor(t, "both stations", func() bool { return a.Len() == 1 && b.Len() == 1 })
}
