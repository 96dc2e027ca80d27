// The push-event plane: every Server owns a pubsub.Bus that services
// publish state changes to, and MountWS exposes it at /ws over the
// in-house WebSocket transport. Clients authenticate with a session,
// then exchange JSON frames (pubsub.Frame): subscribe/unsubscribe with
// a query, event/lagged deliveries, ping/pong keepalive.
//
// Authorization happens twice. At subscribe time the query must pin
// down the module(s) it watches (type=job.* or service=job) and the
// caller must clear the same method ACL walk an RPC into that module
// performs; unscoped queries are reserved for server admins. At
// delivery time, events carrying identity tags (owner/to/from) are
// withheld from subscribers whose DN matches none of them — so a user
// authorized for the job module still only sees their own jobs.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"clarens/internal/acl"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/ws"
)

const (
	wsPingInterval = 30 * time.Second
	// wsReadTimeout bounds silence from the client; it comfortably
	// exceeds the ping interval so an alive connection never trips it.
	wsReadTimeout = 90 * time.Second
	// wsSubBuffer is the per-subscription buffer behind one WS client.
	wsSubBuffer = 256
)

// Events returns the server's event bus.
func (s *Server) Events() *pubsub.Bus { return s.events }

// MountWS serves the push-event WebSocket endpoint at path (default
// /ws).
func (s *Server) MountWS(path string) {
	if path == "" {
		path = "/ws"
	}
	s.mux.HandleFunc(path, s.handleWS)
}

func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	// Browsers cannot set headers on a WebSocket dial; accept the
	// session token as a query parameter too.
	if r.Header.Get(SessionHeader) == "" {
		if sid := r.URL.Query().Get("session"); sid != "" {
			r.Header.Set(SessionHeader, sid)
		}
	}
	dn, sess := s.IdentifyRequest(r)
	if sess == nil || dn.IsZero() {
		http.Error(w, "push events require an authenticated session (X-Clarens-Session header or ?session=)",
			http.StatusUnauthorized)
		return
	}
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		return // Upgrade already wrote the HTTP error
	}
	conn.LimitReads() // a client sends only subscription ops
	s.serveWS(conn, dn)
}

// trackWS registers a live WS connection for shutdown; it reports false
// when the server is already closing.
func (s *Server) trackWS(c *ws.Conn) bool {
	s.wsMu.Lock()
	defer s.wsMu.Unlock()
	if s.wsClosed {
		return false
	}
	if s.wsConns == nil {
		s.wsConns = map[*ws.Conn]struct{}{}
	}
	s.wsConns[c] = struct{}{}
	return true
}

func (s *Server) untrackWS(c *ws.Conn) {
	s.wsMu.Lock()
	delete(s.wsConns, c)
	s.wsMu.Unlock()
}

// closeWS announces shutdown to every live WS session and closes it.
// Called from Server.Close before the bus itself is torn down.
func (s *Server) closeWS() {
	s.wsMu.Lock()
	s.wsClosed = true
	conns := make([]*ws.Conn, 0, len(s.wsConns))
	for c := range s.wsConns {
		conns = append(conns, c)
	}
	s.wsConns = nil
	s.wsMu.Unlock()
	closing, _ := json.Marshal(pubsub.Frame{Op: pubsub.OpClosing})
	for _, c := range conns {
		c.WriteMessage(ws.OpText, closing)
		c.Close()
	}
}

// serveWS runs one authenticated push-event session until the client
// disconnects or the server shuts down.
func (s *Server) serveWS(conn *ws.Conn, dn pki.DN) {
	if !s.trackWS(conn) {
		conn.Close()
		return
	}
	defer s.untrackWS(conn)
	defer conn.Close()

	admin := s.vom.IsServerAdmin(dn)
	dnStr := dn.String()

	var wmu sync.Mutex
	send := func(f pubsub.Frame) bool {
		data, err := json.Marshal(f)
		if err != nil {
			return false
		}
		wmu.Lock()
		defer wmu.Unlock()
		return conn.WriteMessage(ws.OpText, data) == nil
	}

	var subMu sync.Mutex
	subs := map[string]*pubsub.Subscription{}
	var wg sync.WaitGroup
	defer func() {
		subMu.Lock()
		for _, sub := range subs {
			sub.Cancel() // closes the channel; forwarders drain and exit
		}
		subs = nil
		subMu.Unlock()
		wg.Wait()
	}()

	// Server-side keepalive: ping on an interval so dead peers are
	// detected by the read deadline rather than lingering forever.
	stopPing := make(chan struct{})
	defer close(stopPing)
	go func() {
		t := time.NewTicker(wsPingInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				wmu.Lock()
				err := conn.Ping(nil)
				wmu.Unlock()
				if err != nil {
					return
				}
			case <-stopPing:
				return
			}
		}
	}()

	for {
		conn.SetReadDeadline(time.Now().Add(wsReadTimeout))
		_, data, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var f pubsub.Frame
		if err := json.Unmarshal(data, &f); err != nil {
			if !send(pubsub.Frame{Op: pubsub.OpError, Error: "malformed frame: " + err.Error()}) {
				return
			}
			continue
		}
		switch f.Op {
		case pubsub.OpPing:
			if !send(pubsub.Frame{Op: pubsub.OpPong, ID: f.ID}) {
				return
			}
		case pubsub.OpSubscribe:
			errMsg := ""
			var q *pubsub.Query
			if f.ID == "" {
				errMsg = "subscribe requires an id"
			} else if q, err = pubsub.ParseQuery(f.Query); err != nil {
				errMsg = err.Error()
			} else if err := s.authorizeSubscribe(q, dn, admin); err != nil {
				errMsg = err.Error()
			}
			if errMsg != "" {
				if !send(pubsub.Frame{Op: pubsub.OpError, ID: f.ID, Error: errMsg}) {
					return
				}
				continue
			}
			match := func(ev *pubsub.Event) bool {
				return q.Match(ev) && (admin || ownerVisible(ev, dnStr))
			}
			subMu.Lock()
			if subs == nil {
				subMu.Unlock()
				return
			}
			if _, dup := subs[f.ID]; dup {
				subMu.Unlock()
				if !send(pubsub.Frame{Op: pubsub.OpError, ID: f.ID, Error: "duplicate subscription id"}) {
					return
				}
				continue
			}
			sub := s.events.Subscribe("ws:"+dnStr+":"+f.ID, match, wsSubBuffer)
			subs[f.ID] = sub
			subMu.Unlock()
			if !send(pubsub.Frame{Op: pubsub.OpSubscribed, ID: f.ID}) {
				return
			}
			wg.Add(1)
			go func(id string, sub *pubsub.Subscription) {
				defer wg.Done()
				for ev := range sub.Events() {
					if ev.Type == pubsub.TypeLagged {
						n, _ := ev.Data["dropped"].(uint64)
						if !send(pubsub.Frame{Op: pubsub.OpLagged, ID: id, Dropped: n}) {
							conn.Close()
							return
						}
						continue
					}
					ev := ev
					if !send(pubsub.Frame{Op: pubsub.OpEvent, ID: id, Event: &ev}) {
						conn.Close()
						return
					}
				}
			}(f.ID, sub)
		case pubsub.OpUnsubscribe:
			subMu.Lock()
			sub := subs[f.ID]
			delete(subs, f.ID)
			subMu.Unlock()
			if sub == nil {
				if !send(pubsub.Frame{Op: pubsub.OpError, ID: f.ID, Error: "unknown subscription id"}) {
					return
				}
				continue
			}
			sub.Cancel()
			if !send(pubsub.Frame{Op: pubsub.OpUnsubscribed, ID: f.ID}) {
				return
			}
		default:
			if !send(pubsub.Frame{Op: pubsub.OpError, ID: f.ID, Error: "unknown op " + f.Op}) {
				return
			}
		}
	}
}

// authorizeSubscribe gates a subscription query on the method ACLs: the
// caller needs the same module-level access an RPC into each watched
// module requires. Queries that do not pin down a module are reserved
// for server admins.
func (s *Server) authorizeSubscribe(q *pubsub.Query, dn pki.DN, admin bool) error {
	if admin {
		return nil
	}
	mods := q.Modules()
	if len(mods) == 0 {
		return errors.New("unscoped subscriptions (no type=<module>.* or service=<module> term) are admin-only")
	}
	for _, m := range mods {
		if s.cfg.DisableAuth {
			continue
		}
		if decision, _ := s.methACL.AuthorizeDetail(m, dn); decision != acl.Allow {
			return fmt.Errorf("access denied to %q events", m)
		}
	}
	return nil
}

// ownerVisible reports whether an event may be delivered to dn under
// identity scoping: events tagged with owner/to/from are visible only
// to those principals (or admins); untagged events are visible to any
// authorized subscriber.
func ownerVisible(ev *pubsub.Event, dn string) bool {
	restricted := false
	for _, k := range [...]string{"owner", "to", "from"} {
		if v, ok := ev.Tags[k]; ok {
			restricted = true
			if v == dn {
				return true
			}
		}
	}
	return !restricted
}
