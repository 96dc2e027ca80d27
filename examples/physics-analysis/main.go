// Physics analysis: the paper's motivating scenario (§1) — globally
// distributed event data analyzed through Clarens services.
//
// Three "Tier-2" Clarens servers each hold a shard of simulated CMS-style
// dimuon events. They publish their file services to a MonALISA-style
// station server. An analysis client:
//
//  1. queries the discovery network for file services,
//
//  2. binds to each returned URL in real time (location independence),
//
//  3. fetches each file's MD5 and size in a single system.multicall
//     round trip, then reads the remote event data with file.read and
//     verifies integrity,
//
//  4. reconstructs the invariant-mass histogram and finds the resonance
//     peak (a 91 GeV "Z boson" injected into the synthetic data).
//
//     go run ./examples/physics-analysis
package main

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"clarens"
	"clarens/internal/monalisa"
)

// event is a fixed-size binary record: two muon four-vectors.
type event struct {
	Px1, Py1, Pz1, E1 float64
	Px2, Py2, Pz2, E2 float64
}

const eventSize = 8 * 8

// synthEvents produces n events whose invariant mass clusters around
// massGeV with detector-like smearing, using a deterministic PRNG so
// every run reproduces the same dataset.
func synthEvents(n int, massGeV float64, seed uint64) []byte {
	var buf bytes.Buffer
	state := seed
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	gauss := func() float64 {
		// Box-Muller
		u1, u2 := rnd(), rnd()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	for i := 0; i < n; i++ {
		m := massGeV + 2.5*gauss() // detector resolution ~2.5 GeV
		if m < 1 {
			m = 1
		}
		// Back-to-back decay in the resonance rest frame, boosted along z.
		p := m / 2
		theta := math.Acos(2*rnd() - 1)
		phi := 2 * math.Pi * rnd()
		px, py, pz := p*math.Sin(theta)*math.Cos(phi), p*math.Sin(theta)*math.Sin(phi), p*math.Cos(theta)
		boost := 0.3 * rnd()
		gamma := 1 / math.Sqrt(1-boost*boost)
		ev := event{
			Px1: px, Py1: py, Pz1: gamma * (pz + boost*p), E1: gamma * (p + boost*pz),
			Px2: -px, Py2: -py, Pz2: gamma * (-pz + boost*p), E2: gamma * (p - boost*pz),
		}
		binary.Write(&buf, binary.LittleEndian, &ev)
	}
	return buf.Bytes()
}

// invariantMass reconstructs m^2 = (E1+E2)^2 - |p1+p2|^2.
func invariantMass(ev *event) float64 {
	e := ev.E1 + ev.E2
	px := ev.Px1 + ev.Px2
	py := ev.Py1 + ev.Py2
	pz := ev.Pz1 + ev.Pz2
	m2 := e*e - px*px - py*py - pz*pz
	if m2 < 0 {
		return 0
	}
	return math.Sqrt(m2)
}

func main() {
	// --- infrastructure: one station server, three Tier-2 data servers ---
	station, err := monalisa.NewStation("central-station", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer station.Close()

	const eventsPerSite = 4000
	var servers []*clarens.Server
	for i, site := range []string{"tier2-caltech", "tier2-fnal", "tier2-cern"} {
		root, err := os.MkdirTemp("", site)
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(root)
		data := synthEvents(eventsPerSite, 91.2, uint64(1000+i))
		if err := os.WriteFile(filepath.Join(root, "dimuon.events"), data, 0o644); err != nil {
			log.Fatal(err)
		}
		srv, err := clarens.NewServer(clarens.Config{
			Name:         site,
			FileRoot:     root,
			StationAddrs: []string{station.Addr().String()},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		// Collaboration-wide read access to the event store.
		if err := srv.Files.SetACL("/", clarens.AccessRead, &clarens.ACL{
			AllowDNs: []string{clarens.EntryAny, clarens.EntryAnonymous},
		}); err != nil {
			log.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		if err := srv.PublishServices(); err != nil {
			log.Fatal(err)
		}
		servers = append(servers, srv)
		fmt.Printf("%-14s serving %d events at %s\n", site, eventsPerSite, srv.URL())
	}

	// --- a "discovery server" aggregating the station (Figure 3) ---
	disc, err := clarens.NewServer(clarens.Config{
		Name:         "discovery-frontend",
		LocalStation: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer disc.Close()
	// Route the site publications into the frontend's station too.
	station.Peer(mustUDP(disc.StationAddr()))
	if err := disc.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	for _, srv := range servers {
		srv.PublishServices() // republish so the peer receives them
	}

	// --- the analysis client ---
	client, err := clarens.Dial(disc.URL())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var fileServices []map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fileServices, err = client.Discover("*/file")
		if err != nil {
			log.Fatal(err)
		}
		if len(fileServices) >= len(servers) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("\ndiscovered %d file services:\n", len(fileServices))
	for _, e := range fileServices {
		fmt.Printf("  %-14s %s\n", e["server"], e["url"])
	}
	if len(fileServices) < len(servers) {
		log.Fatalf("discovery returned %d services, want %d", len(fileServices), len(servers))
	}

	// Bind to each discovered URL and pull the events.
	hist := make([]int, 140) // 1 GeV bins, 0..140 GeV
	totalEvents := 0
	for _, e := range fileServices {
		dataClient, err := clarens.Dial(e["url"].(string))
		if err != nil {
			log.Fatal(err)
		}
		// One batched round trip for the transfer metadata (the paper's
		// clients boxcar calls like this through system.multicall).
		meta, err := dataClient.Batch().
			Add("file.md5", "/dimuon.events").
			Add("file.size", "/dimuon.events").
			Run()
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range meta {
			if m.Err != nil {
				log.Fatalf("%s: %v", m.Method, m.Err)
			}
		}
		remoteSum := meta[0].Result.(string)
		size := meta[1].Result.(int)
		data := make([]byte, 0, size)
		for offset := 0; offset < size; {
			chunk, _, err := dataClient.FileReadChunk("/dimuon.events", int64(offset), size-offset)
			if err != nil {
				log.Fatal(err)
			}
			if len(chunk) == 0 {
				break
			}
			data = append(data, chunk...)
			offset += len(chunk)
		}
		localSum := md5.Sum(data)
		if remoteSum != hex.EncodeToString(localSum[:]) {
			log.Fatalf("integrity check failed for %s", e["server"])
		}
		for off := 0; off+eventSize <= len(data); off += eventSize {
			var ev event
			binary.Read(bytes.NewReader(data[off:off+eventSize]), binary.LittleEndian, &ev)
			m := invariantMass(&ev)
			if bin := int(m); bin >= 0 && bin < len(hist) {
				hist[bin]++
			}
			totalEvents++
		}
		dataClient.Close()
		fmt.Printf("  %-14s read %6d events (%d bytes, md5 ok)\n", e["server"], len(data)/eventSize, len(data))
	}

	// Find and print the resonance peak.
	peakBin, peakCount := 0, 0
	for bin, count := range hist {
		if count > peakCount {
			peakBin, peakCount = bin, count
		}
	}
	fmt.Printf("\ninvariant-mass histogram (%d events), peak region:\n", totalEvents)
	for bin := peakBin - 6; bin <= peakBin+6; bin++ {
		if bin < 0 || bin >= len(hist) {
			continue
		}
		bar := ""
		for i := 0; i < hist[bin]*60/peakCount; i++ {
			bar += "#"
		}
		fmt.Printf("%4d GeV %6d %s\n", bin, hist[bin], bar)
	}
	fmt.Printf("\nresonance found at %d GeV (injected: 91 GeV — the Z boson)\n", peakBin)
	if peakBin < 88 || peakBin > 94 {
		log.Fatal("analysis failed: peak outside the expected window")
	}
}

func mustUDP(addr string) *net.UDPAddr {
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		log.Fatal(err)
	}
	return udp
}
