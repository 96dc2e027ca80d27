// Client-side push events: Subscribe opens the server's /ws endpoint
// and streams matching bus events, transparently reconnecting and
// resubscribing after a transport drop so callers see one continuous
// (deduplicated) stream.
package clarens

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"clarens/internal/core"
	"clarens/internal/pubsub"
	"clarens/internal/resilience"
	"clarens/internal/ws"
)

// Event is one push event delivered over a Subscription.
type Event = pubsub.Event

// EventLagged is the type of the synthetic marker injected into a
// stream at a gap: after the server dropped events for a slow subscriber
// (Data["dropped"] counts them), or after the client re-dialed a dropped
// transport (Data["reconnected"] is true).
const EventLagged = pubsub.TypeLagged

const (
	reconnectMin = 50 * time.Millisecond
	reconnectMax = 2 * time.Second
)

// wsTLSConfig clones the client's TLS config for the raw /ws dial,
// stripping ALPN: the transport's HTTP/2 setup appends "h2" to the
// shared config's NextProtos in place, but the WebSocket upgrade is an
// HTTP/1.1 handshake — a dial offering h2 would be routed to the
// server's h2 connection handler and never reach the Upgrade path.
// Offering no ALPN makes an h2-enabled server fall back to HTTP/1.1.
func wsTLSConfig(tc *tls.Config) *tls.Config {
	if tc == nil {
		return nil
	}
	tc = tc.Clone()
	tc.NextProtos = nil
	return tc
}

// Subscription is a live push-event stream. Events arrive on Events()
// until Close is called or the subscription fails permanently (the
// server rejected the query, or the client was closed); Err reports why
// the channel closed.
type Subscription struct {
	c     *Client
	query string
	// Dial parameters snapshotted at Subscribe time, so the reconnect
	// loop never reads client internals that Client.Close mutates.
	tlsConf *tls.Config
	timeout time.Duration

	mu      sync.Mutex
	conn    *ws.Conn // live transport, for tests to kill and Close to unblock
	closed  bool
	err     error
	lastSeq uint64

	ch   chan Event
	done chan struct{}
}

// Subscribe opens a push-event subscription for a query (see the README
// "Push events" section for the syntax, e.g. "type=job.state owner='/O=…'").
// The client's session authenticates the stream; delivery is scoped by
// the same ACL and ownership rules as the RPC surface. The returned
// subscription reconnects and resubscribes automatically if the
// transport drops, deduplicating events by sequence number across the
// gap — though events published while disconnected are gone (at-most-
// once delivery). Each reconnect delivers an EventLagged marker; resync
// from the RPC surface after one if completeness matters.
func (c *Client) Subscribe(query string) (*Subscription, error) {
	if _, err := pubsub.ParseQuery(query); err != nil {
		return nil, err
	}
	sub := &Subscription{
		c:       c,
		query:   query,
		tlsConf: wsTLSConfig(c.transport.TLSClientConfig),
		timeout: c.http.Timeout,
		ch:      make(chan Event, 64),
		done:    make(chan struct{}),
	}
	// Dial synchronously so a bad session or denied query fails the
	// Subscribe call itself, not the first read.
	conn, err := sub.dial()
	if err != nil {
		return nil, err
	}
	sub.mu.Lock()
	sub.conn = conn
	sub.mu.Unlock()
	go sub.run(conn)
	return sub, nil
}

// Events returns the stream. It closes when the subscription ends; call
// Err for the reason.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Err reports why the stream closed (nil after a clean Close).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears the subscription down and closes the event channel.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	close(s.done)
	if conn != nil {
		conn.Close()
	}
	return nil
}

// wsURL derives the push endpoint from the RPC endpoint URL.
func (s *Subscription) wsURL() string {
	return strings.TrimSuffix(s.c.url, "/rpc") + "/ws"
}

// dial opens the transport and performs the subscribe handshake; it
// returns only once the server acked (or rejected) the subscription.
func (s *Subscription) dial() (*ws.Conn, error) {
	hdr := http.Header{}
	if sid := s.c.Session(); sid != "" {
		hdr.Set(core.SessionHeader, sid)
	}
	conn, err := ws.Dial(s.wsURL(), hdr, s.tlsConf, s.timeout)
	if err != nil {
		return nil, err
	}
	req, _ := json.Marshal(pubsub.Frame{Op: pubsub.OpSubscribe, ID: "sub", Query: s.query})
	if err := conn.WriteMessage(ws.OpText, req); err != nil {
		conn.Close()
		return nil, err
	}
	for {
		_, data, err := conn.ReadMessage()
		if err != nil {
			conn.Close()
			return nil, err
		}
		var f pubsub.Frame
		if err := json.Unmarshal(data, &f); err != nil {
			conn.Close()
			return nil, fmt.Errorf("clarens: malformed push frame: %w", err)
		}
		switch f.Op {
		case pubsub.OpSubscribed:
			return conn, nil
		case pubsub.OpError:
			conn.Close()
			return nil, fmt.Errorf("clarens: subscribe rejected: %s", f.Error)
		default:
			// Events can already race ahead of the ack on a reconnect;
			// deliver rather than drop them.
			s.deliver(&f)
		}
	}
}

// deliver forwards one event frame, deduplicating by sequence number
// (reconnects replay nothing, but guard against any overlap anyway).
func (s *Subscription) deliver(f *pubsub.Frame) {
	var ev Event
	switch f.Op {
	case pubsub.OpEvent:
		if f.Event == nil {
			return
		}
		ev = *f.Event
		// Seq 0 marks synthetic events (lag markers); real events carry
		// a monotonic per-bus sequence.
		if ev.Seq != 0 {
			s.mu.Lock()
			dup := ev.Seq <= s.lastSeq
			if !dup {
				s.lastSeq = ev.Seq
			}
			s.mu.Unlock()
			if dup {
				return
			}
		}
	case pubsub.OpLagged:
		ev = Event{Type: EventLagged, Data: map[string]any{"dropped": f.Dropped}}
	default:
		return
	}
	select {
	case s.ch <- ev:
	case <-s.done:
	}
}

// run pumps one connection after another until Close or a permanent
// failure, reconnecting with capped exponential backoff.
func (s *Subscription) run(conn *ws.Conn) {
	defer close(s.ch)
	for {
		s.pump(conn)
		conn.Close()
		// Reconnect unless the subscription was closed deliberately. The
		// shared resilience backoff jitters each delay so a fleet of
		// subscribers dropped by one server restart does not reconnect in
		// lockstep (thundering herd).
		for attempt := 0; ; attempt++ {
			select {
			case <-s.done:
				return
			case <-time.After(resilience.Backoff(attempt, reconnectMin, reconnectMax, 0.5)):
			}
			c, err := s.dial()
			if err == nil {
				conn = c
				break
			}
			if strings.Contains(err.Error(), "subscribe rejected") {
				// The server now refuses the query (session expired, ACL
				// changed): no amount of retrying helps.
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
				return
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conn = conn
		s.mu.Unlock()
		// Events published during the gap are gone: say so with a marker,
		// as the server does when it sheds events for a slow subscriber.
		select {
		case s.ch <- Event{Type: EventLagged, Data: map[string]any{"reconnected": true}}:
		case <-s.done:
		}
	}
}

// pump reads one connection until it drops.
func (s *Subscription) pump(conn *ws.Conn) {
	for {
		_, data, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var f pubsub.Frame
		if err := json.Unmarshal(data, &f); err != nil {
			continue
		}
		if f.Op == pubsub.OpClosing {
			// Server shutdown: it will not come back on this address any
			// time soon, but the reconnect loop handles that naturally.
			return
		}
		s.deliver(&f)
	}
}
