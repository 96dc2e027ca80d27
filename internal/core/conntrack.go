package core

// Connection-layer instrumentation and TLS session-ticket key
// management. The paper's §4 measurements (reproduced by the
// BenchmarkTLSOverhead* rows; README "Paper figures") put the
// production cliff at the TLS handshake: ~8.8k rps over a
// kept-alive connection collapses to ~700 rps when every call pays a
// full handshake. Everything here exists to make that amortization
// observable (clarens.conn.* gauges) and to keep resumption working
// at federation scale (rotating ticket keys, shareable across peers
// behind one DNS name).

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"encoding/binary"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clarens/internal/telemetry"
)

// connTracker counts connection-layer events on the serving side:
// TCP connections accepted, TLS handshakes (full vs ticket-resumed),
// negotiated ALPN protocols, and RPC requests per HTTP version. All
// counters are monotonic totals; rates belong to the scraper.
type connTracker struct {
	opened     atomic.Int64 // TCP connections accepted
	closed     atomic.Int64 // HTTP/1.x connections closed or hijacked (h2 conns are managed out of ConnState's sight)
	handshakes atomic.Int64 // TLS handshakes completed
	resumed    atomic.Int64 // handshakes resumed from a session ticket
	alpnH2     atomic.Int64 // handshakes that negotiated h2
	alpnHTTP1  atomic.Int64 // handshakes that negotiated http/1.1 or nothing
	reqH2      atomic.Int64 // RPC requests served over HTTP/2
	reqHTTP1   atomic.Int64 // RPC requests served over HTTP/1.x
}

// handshake records one completed TLS handshake; called from the tls
// config's VerifyConnection hook, which runs for every connection —
// including resumptions, where the certificate callbacks are skipped.
func (t *connTracker) handshake(cs tls.ConnectionState) {
	t.handshakes.Add(1)
	if cs.DidResume {
		t.resumed.Add(1)
	}
	if cs.NegotiatedProtocol == "h2" {
		t.alpnH2.Add(1)
	} else {
		t.alpnHTTP1.Add(1)
	}
}

// request records one dispatched RPC request's HTTP version.
func (t *connTracker) request(r *http.Request) {
	if r == nil {
		return
	}
	if r.ProtoMajor == 2 {
		t.reqH2.Add(1)
	} else {
		t.reqHTTP1.Add(1)
	}
}

// counters is the one listing of the tracker's counters. key is the
// clarens.conn.* gauge suffix; the system.stats conn section uses it
// too, less the "_total" a gauge of a monotonic count carries.
func (t *connTracker) counters() []connCounter {
	return []connCounter{
		{"opened_total", "TCP connections accepted by the listener.", &t.opened},
		{"closed_total", "HTTP/1.x connections closed (HTTP/2 connections are tracked at handshake level only).", &t.closed},
		{"handshakes_total", "TLS handshakes completed.", &t.handshakes},
		{"handshakes_resumed", "TLS handshakes resumed from a session ticket (no certificate re-exchange).", &t.resumed},
		{"negotiated_h2", "TLS handshakes that negotiated HTTP/2 via ALPN.", &t.alpnH2},
		{"negotiated_http1", "TLS handshakes that negotiated HTTP/1.1 (or offered no ALPN).", &t.alpnHTTP1},
		{"http2_requests", "RPC requests served over HTTP/2.", &t.reqH2},
		{"http1_requests", "RPC requests served over HTTP/1.x.", &t.reqHTTP1},
	}
}

type connCounter struct {
	key, help string
	v         *atomic.Int64
}

// register exposes the tracker on the telemetry registry under the
// clarens.conn.* namespace.
func (t *connTracker) register(reg *telemetry.Registry) {
	for _, c := range t.counters() {
		reg.RegisterGauge("clarens.conn."+c.key, c.help, func() float64 { return float64(c.v.Load()) })
	}
}

// stats snapshots the tracker for system.stats.
func (t *connTracker) stats() map[string]any {
	out := make(map[string]any)
	for _, c := range t.counters() {
		out[strings.TrimSuffix(c.key, "_total")] = c.v.Load()
	}
	return out
}

// ticketKeeper manages the server's TLS session-ticket keys. Two modes:
//
//   - Random rotation (no secret): a fresh random key is generated every
//     Rotate period and prepended; the newest key encrypts new tickets
//     and the two previous generations stay accepted, so a resuming
//     client is never refused across one rotation boundary.
//
//   - Shared secret: keys are derived as SHA-256(secret, epoch) where
//     epoch = unix-time / Rotate. Every federation peer configured with
//     the same secret and rotation period derives the same key schedule
//     independently — a client holding a ticket from one peer resumes
//     on any other peer behind the same DNS name. The adjacent epochs
//     (previous and next) are accepted too, absorbing clock skew and
//     boundary races. With Rotate == 0 the secret derives one static
//     key (epoch 0): simplest cross-peer setup, no forward secrecy
//     horizon — prefer a rotation period in production.
//
// Keys are installed with SetSessionTicketKeys on the live tls.Config
// the listener uses, so rotation takes effect without a restart.
type ticketKeeper struct {
	secret []byte
	rotate time.Duration
	cfg    *tls.Config

	mu     sync.Mutex
	random [][32]byte // newest first; random-rotation mode only

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// newTicketKeeper installs the initial key set on cfg and, when a
// rotation period is configured, starts the rotation loop. Returns nil
// when neither a secret nor a rotation period is set (Go's built-in
// automatic ticket-key rotation then applies, which is fine for a
// single server but cannot be shared across a federation).
func newTicketKeeper(cfg *tls.Config, secret string, rotate time.Duration) *ticketKeeper {
	if secret == "" && rotate <= 0 {
		return nil
	}
	k := &ticketKeeper{rotate: rotate, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if secret != "" {
		k.secret = []byte(secret)
	}
	cfg.SetSessionTicketKeys(k.keys(time.Now()))
	if rotate > 0 {
		go k.loop()
	} else {
		close(k.done)
	}
	return k
}

// keys computes the full key set for a point in time: the first key
// encrypts new tickets, the rest are accepted for decryption.
func (k *ticketKeeper) keys(now time.Time) [][32]byte {
	if k.secret != nil {
		if k.rotate <= 0 {
			return [][32]byte{k.derive(0)}
		}
		e := now.UnixNano() / int64(k.rotate)
		return [][32]byte{k.derive(e), k.derive(e + 1), k.derive(e - 1)}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.random) == 0 {
		k.random = [][32]byte{randomTicketKey()}
	}
	return append([][32]byte(nil), k.random...)
}

// derive maps (secret, epoch) to one ticket key.
func (k *ticketKeeper) derive(epoch int64) [32]byte {
	h := sha256.New()
	h.Write([]byte("clarens-tls-ticket-v1\x00"))
	h.Write(k.secret)
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(epoch))
	h.Write(e[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func randomTicketKey() [32]byte {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		panic("core: ticket key entropy: " + err.Error())
	}
	return key
}

// loop re-installs the key schedule every quarter period: cheap and
// idempotent in shared-secret mode (the epoch selects the keys), and
// the trigger for generating the next random key otherwise.
func (k *ticketKeeper) loop() {
	defer close(k.done)
	tick := k.rotate / 4
	if tick < time.Second {
		tick = time.Second
	}
	if tick > k.rotate {
		tick = k.rotate
	}
	last := time.Now()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-k.stop:
			return
		case now := <-t.C:
			if k.secret == nil {
				if now.Sub(last) < k.rotate {
					continue
				}
				last = now
				k.mu.Lock()
				k.random = append([][32]byte{randomTicketKey()}, k.random...)
				if len(k.random) > 3 {
					k.random = k.random[:3]
				}
				k.mu.Unlock()
			}
			k.cfg.SetSessionTicketKeys(k.keys(now))
		}
	}
}

// Stop halts the rotation loop; safe to call repeatedly and on nil.
func (k *ticketKeeper) Stop() {
	if k == nil {
		return
	}
	k.stopOnce.Do(func() { close(k.stop) })
	<-k.done
}
