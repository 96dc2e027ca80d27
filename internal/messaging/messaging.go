// Package messaging implements the paper's §6 future-work item: "an
// instant messaging (IM) architecture" overcoming the request/response
// limitation for "asynchronous bi-directional communication required for
// interactions between users and the jobs they are running on private
// networks protected by NAT and firewalls".
//
// The design follows the constraint that motivated it: jobs behind NAT
// can open *outbound* connections only, so delivery is store-and-forward
// — senders post messages addressed to a DN; recipients poll (or
// long-poll) their queue over the same authenticated RPC channel they
// already use. "Jobs can be instrumented to act as Clarens ... clients
// sending information to monitoring systems or remote debugging tools."
//
// Messages persist in the database, so queued traffic survives server
// restarts like sessions do.
package messaging

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
)

const bucket = "messages"

// Message is one queued item.
type Message struct {
	ID      string    `json:"id"`
	From    string    `json:"from"` // sender DN
	To      string    `json:"to"`   // recipient DN
	Subject string    `json:"subject"`
	Body    string    `json:"body"`
	Sent    time.Time `json:"sent"`
}

// DefaultTTL is how long undelivered messages are retained.
const DefaultTTL = 24 * time.Hour

// MaxBody bounds a message body.
const MaxBody = 256 << 10

// EventDelivered is the bus event type published for every queued
// message, tagged to/from; message.wait parks on it instead of a
// bespoke waiter list.
const EventDelivered = "message.delivered"

// Service is the store-and-forward messaging service.
type Service struct {
	srv *core.Server
	TTL time.Duration
}

// New creates the messaging service.
func New(srv *core.Server) *Service {
	return &Service{srv: srv, TTL: DefaultTTL}
}

// Name implements core.Service.
func (s *Service) Name() string { return "message" }

// Methods implements core.Service.
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name:   "message.send",
			Help:   "Queue a message for a DN: send(to_dn, subject, body); returns the message id.",
			Public: true,
			Func:   core.Func3(s.send),
		},
		{
			Name:   "message.poll",
			Help:   "Return (and keep) the caller's queued messages, oldest first. Optional parameter: max count.",
			Public: true,
			Func:   core.Func1(s.poll),
		},
		{
			Name:   "message.wait",
			Help:   "Long-poll: like message.poll but blocks up to `timeout_ms` for a message to arrive.",
			Public: true,
			Func:   core.Func2(s.wait),
		},
		{
			Name:   "message.ack",
			Help:   "Acknowledge (delete) a delivered message by id.",
			Public: true,
			Func:   core.Func1(s.ack),
		},
		{
			Name:   "message.count",
			Help:   "Number of messages queued for the caller.",
			Public: true,
			Func:   core.Func0(s.count),
		},
	}
}

// key layout: <recipient DN>|<unix nanos>|<id> — Keys(prefix) yields a
// recipient's queue in arrival order.
func msgKey(to string, sent time.Time, id string) string {
	return fmt.Sprintf("%s|%020d|%s", to, sent.UnixNano(), id)
}

// Send queues a message; exported for in-process producers (job wrappers).
func (s *Service) Send(from, to pki.DN, subject, body string) (string, error) {
	if to.IsZero() {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "message: empty recipient"}
	}
	if len(body) > MaxBody {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "message: body too large"}
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return "", err
	}
	m := Message{
		ID:      hex.EncodeToString(idb[:]),
		From:    from.String(),
		To:      to.String(),
		Subject: subject,
		Body:    body,
		Sent:    time.Now(),
	}
	if err := s.srv.Store().PutJSON(bucket, msgKey(m.To, m.Sent, m.ID), &m); err != nil {
		return "", err
	}
	// Announce on the event bus: wakes parked message.wait calls and
	// feeds /ws subscribers (delivery is scoped to the to/from DNs).
	s.srv.Events().Publish(pubsub.Event{
		Type: EventDelivered,
		Tags: map[string]string{"service": "message", "to": m.To, "from": m.From},
		Data: map[string]any{"id": m.ID, "subject": m.Subject},
	})
	return m.ID, nil
}

// Queue returns up to max queued messages for dn, oldest first (0 = all).
func (s *Service) Queue(dn pki.DN, max int) ([]Message, error) {
	cutoff := time.Now().Add(-s.TTL)
	var out []Message
	for _, key := range s.srv.Store().Keys(bucket, dn.String()+"|") {
		var m Message
		found, err := s.srv.Store().GetJSON(bucket, key, &m)
		if err != nil || !found {
			continue
		}
		if m.Sent.Before(cutoff) {
			s.srv.Store().Delete(bucket, key)
			continue
		}
		out = append(out, m)
		if max > 0 && len(out) >= max {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sent.Before(out[j].Sent) })
	return out, nil
}

// Ack deletes a message from dn's queue by id.
func (s *Service) Ack(dn pki.DN, id string) (bool, error) {
	for _, key := range s.srv.Store().Keys(bucket, dn.String()+"|") {
		var m Message
		found, err := s.srv.Store().GetJSON(bucket, key, &m)
		if err != nil || !found {
			continue
		}
		if m.ID == id {
			return true, s.srv.Store().Delete(bucket, key)
		}
	}
	return false, nil
}

func (s *Service) send(ctx *core.Context, toStr, subject string, body core.Opt[string]) (string, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return "", err
	}
	to, perr := pki.ParseDN(toStr)
	if perr != nil {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: perr.Error()}
	}
	return s.Send(ctx.DN, to, subject, body.Or(""))
}

func messageStruct(m Message) map[string]any {
	return map[string]any{
		"id":      m.ID,
		"from":    m.From,
		"subject": m.Subject,
		"body":    m.Body,
		"sent":    m.Sent.UTC(),
	}
}

func messageStructs(msgs []Message) []any {
	out := make([]any, len(msgs))
	for i, m := range msgs {
		out[i] = messageStruct(m)
	}
	return out
}

func (s *Service) poll(ctx *core.Context, max core.Opt[int]) ([]any, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return nil, err
	}
	msgs, err := s.Queue(ctx.DN, max.Or(0))
	if err != nil {
		return nil, err
	}
	return messageStructs(msgs), nil
}

func (s *Service) wait(ctx *core.Context, maxArg, timeoutArg core.Opt[int]) ([]any, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return nil, err
	}
	max, timeoutMS := maxArg.Or(0), min(timeoutArg.Or(30000), 120000)
	// Park on the event bus. A request cancelled or a method deadline hit
	// mid-poll, a timeout, and a bus closed by server shutdown all end the
	// long poll with what the queue holds then (usually nothing), so
	// clients simply retry.
	var msgs []Message
	var err error
	dn := ctx.DN.String()
	s.srv.Events().Await(ctx, "message.wait:"+dn, func(ev *pubsub.Event) bool {
		return ev.Type == EventDelivered && ev.Tags["to"] == dn
	}, time.Duration(timeoutMS)*time.Millisecond, func() bool {
		msgs, err = s.Queue(ctx.DN, max)
		return err != nil || len(msgs) > 0
	})
	if err != nil {
		return nil, err
	}
	return messageStructs(msgs), nil
}

func (s *Service) ack(ctx *core.Context, id string) (bool, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return false, err
	}
	return s.Ack(ctx.DN, id)
}

func (s *Service) count(ctx *core.Context) (int, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return 0, err
	}
	msgs, err := s.Queue(ctx.DN, 0)
	if err != nil {
		return 0, err
	}
	return len(msgs), nil
}

var _ core.Service = (*Service)(nil)
