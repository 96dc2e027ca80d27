package clarens

import (
	"context"
	"time"

	"clarens/internal/metasched"
)

// This file adapts the public Client to the meta-scheduler's Conn and
// EventStream interfaces. Each server's scheduler keeps one Client per
// peer URL; per-call session tokens ride a ContextWithSession override,
// so that one HTTP/2-multiplexed client carries all of the scheduler's
// control traffic to a peer — stats polls, batched submissions, status
// sweeps — for every delegated identity at once.

type federationConn struct{ c *Client }

func (a *federationConn) Call(token, trace, method string, params ...any) (any, error) {
	ctx := context.Background()
	if token != "" {
		ctx = ContextWithSession(ctx, token)
	}
	if trace != "" {
		ctx = ContextWithTrace(ctx, trace)
	}
	return a.c.CallCtx(ctx, method, params...)
}

func (a *federationConn) Batch(token string, calls []metasched.Call) ([]metasched.Result, error) {
	b := a.c.Batch()
	for _, cl := range calls {
		// Per-sub-call traces ride the multicall entries, so one batched
		// POST carries each job's own trace — and its force-sample bit —
		// to the peer.
		b.AddTraceSampled(cl.Trace, cl.Sample, cl.Method, cl.Params...)
	}
	ctx := context.Background()
	if token != "" {
		ctx = ContextWithSession(ctx, token)
	}
	rs, err := b.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]metasched.Result, len(rs))
	for i, r := range rs {
		out[i] = metasched.Result{Value: r.Result, Err: r.Err}
	}
	return out, nil
}

// Close implements the scheduler's discard-after-failure semantics: the
// client's idle (possibly broken) connections are torn down, and the
// scheduler dials a fresh client on next use.
func (a *federationConn) Close() { a.c.Close() }

// federationDialer opens a peer connection for the meta-scheduler. Peer
// calls are control traffic: a short timeout keeps a dead peer from
// stalling the scheduler loop, and a small connection cap is plenty —
// over h2 one connection multiplexes all concurrent calls.
func federationDialer(url string) (metasched.Conn, error) {
	c, err := Dial(url, WithTimeout(5*time.Second), WithMaxConns(8))
	if err != nil {
		return nil, err
	}
	return &federationConn{c: c}, nil
}

// verifyDelegationRemote asks an allowlisted issuer's
// proxy.check_delegation whether it vouches for (dn, secret). It dials
// for its one call: a check runs once per delegated login, and the
// issuing scheduler caches the resulting session per (peer, owner).
func verifyDelegationRemote(issuerURL, dn, secret string) (bool, error) {
	c, err := Dial(issuerURL, WithTimeout(5*time.Second), WithMaxConns(1))
	if err != nil {
		return false, err
	}
	defer c.Close()
	return CallAs[bool](c, "proxy.check_delegation", dn, secret)
}

// fedEventStream adapts a client push Subscription to the scheduler's
// EventStream; closing tears down both the subscription and its client.
type fedEventStream struct {
	st *Subscription
	c  *Client
}

func (f *fedEventStream) Events() <-chan Event { return f.st.Events() }

func (f *fedEventStream) Close() error {
	err := f.st.Close()
	// The event channel closes once the subscription's pump goroutine has
	// fully stopped; only then is the client safe to tear down.
	for range f.st.Events() {
	}
	f.c.Close()
	return err
}

// federationEventDialer subscribes the meta-scheduler to a peer's /ws
// under the owner's delegated session, so forwarded jobs report their
// transitions by push instead of being batch-polled. An error (peer
// without /ws, typically) makes the scheduler fall back to polling.
// Each stream has its own client: /ws rides a hijacked HTTP/1.1
// connection that cannot multiplex.
func federationEventDialer(rpcURL, token, query string) (metasched.EventStream, error) {
	c, err := Dial(rpcURL, WithTimeout(5*time.Second), WithSession(token), WithMaxConns(2))
	if err != nil {
		return nil, err
	}
	st, err := c.Subscribe(query)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &fedEventStream{st: st, c: c}, nil
}
