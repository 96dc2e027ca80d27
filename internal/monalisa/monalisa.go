// Package monalisa implements the monitoring substrate of the paper's
// discovery architecture (§2.4, Figure 3): MonALISA-style *station
// servers* that ingest UDP datagrams of monitoring tuples, arrange them
// "roughly as described by the GLUE schema, as a hierarchy of servers,
// farms, nodes and key/numerical value pairs", replicate them across a
// peer network (publish/subscribe), and serve snapshot queries and live
// subscriptions to discovery clients.
//
// Substitution (README "Substitutions"): the production MonALISA
// network ran JINI/Java across 90+ sites; this package reproduces the
// same code path — UDP publish → station aggregation → peer republish →
// subscription — with site count as a test parameter.
package monalisa

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one monitoring tuple in GLUE-style hierarchy: farm → cluster
// → node, carrying numeric parameters and string tags.
type Record struct {
	Farm    string             `json:"farm"`
	Cluster string             `json:"cluster"`
	Node    string             `json:"node"`
	Params  map[string]float64 `json:"params,omitempty"`
	Tags    map[string]string  `json:"tags,omitempty"`
	Time    time.Time          `json:"time"`
	// Hops counts republications through the station network, bounding
	// flood propagation.
	Hops int `json:"hops,omitempty"`
}

// Key identifies the record's node slot in the hierarchy.
func (r *Record) Key() string {
	return r.Farm + "/" + r.Cluster + "/" + r.Node
}

// Validate checks the hierarchy fields.
func (r *Record) Validate() error {
	if r.Farm == "" || r.Node == "" {
		return fmt.Errorf("monalisa: record needs farm and node (got %q)", r.Key())
	}
	if strings.ContainsAny(r.Farm+r.Cluster+r.Node, "/\n") {
		return fmt.Errorf("monalisa: farm/cluster/node must not contain '/' or newlines")
	}
	return nil
}

// MaxHops bounds replication through the peer network.
const MaxHops = 4

// MaxDatagram is the largest accepted UDP payload.
const MaxDatagram = 60 * 1024

// Station is a MonALISA-style station server: it listens for UDP
// datagrams, stores the most recent record per node, republishes to
// peers, and feeds subscribers.
type Station struct {
	Name string

	mu      sync.RWMutex
	records map[string]*Record // node key -> latest record
	peers   []*net.UDPAddr
	subs    map[int]*subscriber
	nextSub int
	closed  bool

	conn *net.UDPConn
	wg   sync.WaitGroup

	// DefaultTTL ages out records not refreshed within the window;
	// zero disables expiry.
	DefaultTTL time.Duration
}

type subscriber struct {
	ch     chan Record
	filter func(*Record) bool
}

// NewStation starts a station listening on addr ("127.0.0.1:0" for tests).
func NewStation(name, addr string) (*Station, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("monalisa: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("monalisa: listen: %w", err)
	}
	st := &Station{
		Name:    name,
		records: make(map[string]*Record),
		subs:    make(map[int]*subscriber),
		conn:    conn,
	}
	st.wg.Add(1)
	go st.readLoop()
	return st, nil
}

// Addr returns the station's UDP address.
func (st *Station) Addr() *net.UDPAddr { return st.conn.LocalAddr().(*net.UDPAddr) }

func (st *Station) readLoop() {
	defer st.wg.Done()
	buf := make([]byte, MaxDatagram)
	for {
		n, _, err := st.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		var rec Record
		if err := json.Unmarshal(buf[:n], &rec); err != nil {
			continue // malformed datagram: drop, stations must not crash
		}
		if rec.Validate() != nil {
			continue
		}
		st.Ingest(&rec)
	}
}

// Ingest stores a record, notifies subscribers, and republishes to peers.
// Exposed for in-process wiring (the JClarens-as-JINI-client shortcut).
func (st *Station) Ingest(rec *Record) {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	stored := *rec
	st.records[rec.Key()] = &stored
	// Send under the lock: Close and a subscription's cancel close the
	// channel under it, so a send outside could hit a closed channel.
	for _, sub := range st.subs {
		if sub.filter == nil || sub.filter(rec) {
			select {
			case sub.ch <- *rec:
			default: // slow subscriber: drop rather than block the station
			}
		}
	}
	peers := append([]*net.UDPAddr(nil), st.peers...)
	st.mu.Unlock()

	if rec.Hops < MaxHops && len(peers) > 0 {
		fwd := *rec
		fwd.Hops++
		data, err := json.Marshal(&fwd)
		if err != nil {
			return
		}
		for _, p := range peers {
			st.conn.WriteToUDP(data, p)
		}
	}
}

// Peer adds a peer station to republish into.
func (st *Station) Peer(addr *net.UDPAddr) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.peers = append(st.peers, addr)
}

// Subscribe returns a channel of records matching filter (nil = all) and
// a cancel function. The channel buffer holds up to 256 records; slow
// consumers lose records rather than stall the station.
func (st *Station) Subscribe(filter func(*Record) bool) (<-chan Record, func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := st.nextSub
	st.nextSub++
	sub := &subscriber{ch: make(chan Record, 256), filter: filter}
	st.subs[id] = sub
	cancel := func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if s, ok := st.subs[id]; ok {
			delete(st.subs, id)
			close(s.ch)
		}
	}
	return sub.ch, cancel
}

// Query returns a snapshot of records whose farm/cluster/node match the
// given values ("" matches anything), newest first.
func (st *Station) Query(farm, cluster, node string) []Record {
	now := time.Now()
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Record
	for _, rec := range st.records {
		if farm != "" && rec.Farm != farm {
			continue
		}
		if cluster != "" && rec.Cluster != cluster {
			continue
		}
		if node != "" && rec.Node != node {
			continue
		}
		if st.DefaultTTL > 0 && now.Sub(rec.Time) > st.DefaultTTL {
			continue
		}
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.After(out[j].Time)
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// Farms lists the distinct farm names currently known.
func (st *Station) Farms() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	seen := map[string]bool{}
	for _, rec := range st.records {
		seen[rec.Farm] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored node records.
func (st *Station) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.records)
}

// Expire drops records older than ttl; returns how many were dropped.
func (st *Station) Expire(ttl time.Duration) int {
	cutoff := time.Now().Add(-ttl)
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for k, rec := range st.records {
		if rec.Time.Before(cutoff) {
			delete(st.records, k)
			n++
		}
	}
	return n
}

// Close stops the station.
func (st *Station) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	for id, sub := range st.subs {
		delete(st.subs, id)
		close(sub.ch)
	}
	st.mu.Unlock()
	err := st.conn.Close()
	st.wg.Wait()
	return err
}

// Publisher sends records to station servers over UDP, the path Clarens
// servers use to publish service information (paper §2.4: "Clarens
// servers can publish service information using a UDP-based application
// to so-called station servers").
type Publisher struct {
	mu      sync.Mutex
	conn    *net.UDPConn
	targets []*net.UDPAddr
}

// NewPublisher creates a publisher aimed at the given station addresses.
func NewPublisher(targets ...*net.UDPAddr) (*Publisher, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("monalisa: publisher: %w", err)
	}
	return &Publisher{conn: conn, targets: targets}, nil
}

// AddTarget adds another station server.
func (p *Publisher) AddTarget(addr *net.UDPAddr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.targets = append(p.targets, addr)
}

// Publish sends one record to every target station.
func (p *Publisher) Publish(rec *Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if len(data) > MaxDatagram {
		return fmt.Errorf("monalisa: record exceeds datagram limit (%d bytes)", len(data))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for _, t := range p.targets {
		if _, err := p.conn.WriteToUDP(data, t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close releases the publisher socket.
func (p *Publisher) Close() error { return p.conn.Close() }
