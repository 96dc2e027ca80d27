package main

import (
	"context"
	"fmt"
	"time"

	"clarens"
	"clarens/internal/jobsvc"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

// call is one RPC of an operation: enough to send it, to check its
// answer, and for the traced run to replay it.
type call struct {
	method string
	params []any
	check  func(result any) error
	// subcalls names the methods a system.multicall dispatches besides
	// itself.
	subcalls []string
	// rerunnable calls do the same work and leave the same answer when
	// dispatched twice in a row; the traced run replays only those a
	// second time.
	rerunnable bool
}

// caller is one closed-loop client: it sends its next operation only
// after the previous one was answered and checked.
type caller struct {
	idx int
	dn  string
	g   *gen
	c   *clarens.Client
	sub *clarens.Subscription

	next   func() call
	before func()                                      // runs ahead of the RPC, inside the timed operation
	after  func(ctx context.Context, result any) error // completes the operation once the RPC is answered

	opened    int64         // connections this caller's client had opened after its last operation
	lastEvent clarens.Event // terminal event of this caller's last job
}

// do runs one operation; any transport error, fault or answer the
// workload's oracle rejects fails it.
func (cl *caller) do(ctx context.Context) error {
	_, err := cl.doCall(ctx, cl.next())
	return err
}

func (cl *caller) doCall(ctx context.Context, k call) (any, error) {
	if cl.before != nil {
		cl.before()
	}
	res, err := cl.c.CallCtx(ctx, k.method, k.params...)
	if err != nil {
		return nil, err
	}
	if err := k.check(res); err != nil {
		return nil, fmt.Errorf("%s: %w", k.method, err)
	}
	if cl.after != nil {
		return res, cl.after(ctx, res)
	}
	return res, nil
}

func (cl *caller) close() {
	if cl.sub != nil {
		cl.sub.Close()
	}
	cl.c.Close()
}

func wantEqual(want any) func(any) error {
	return func(got any) error {
		if !rpc.Equal(got, want) {
			return fmt.Errorf("answer differs from the expected %T", want)
		}
		return nil
	}
}

// workload is one traffic shape: the server it needs and the calls
// each caller follows. The table's order and names are fixed; later
// issues cite them.
type workload struct {
	name, why string
	codec     string   // wire protocol the callers speak
	tls       bool     // TLS 1.3 with client certificates
	disk      bool     // database on disk instead of in memory
	jobs      bool     // shell and job services
	admin     bool     // callers are server administrators
	grant     []string // modules opened to administrators
	tracedOps int      // operations the traced run samples
	// calls returns the caller's seeded sequence of calls; it only
	// generates, and needs no server.
	calls func(fx *fixture, cl *caller) func() call
	// attach, where set, installs what the operation does around the RPC
	// on the caller's live client.
	attach func(cl *caller) error
}

var workloads = []*workload{
	{
		name:  "rpc-small",
		why:   "smallest message over keep-alive: HTTP framing, syscalls and the client stack dominate; a codec change must show nothing here",
		codec: "xmlrpc", tracedOps: 2000,
		calls: func(*fixture, *caller) func() call {
			k := call{method: "system.echo", params: []any{"hello"}, check: wantEqual("hello"), rerunnable: true}
			return func() call { return k }
		},
	},
	{
		name:  "rpc-large",
		why:   "64-row result table each way: decode, normalize and encode dominate, so wire-path work shows here and not on rpc-small",
		codec: "xmlrpc", tracedOps: 200,
		calls: func(_ *fixture, cl *caller) func() call {
			rows := cl.g.rows()
			k := call{method: "system.echo", params: []any{rows}, check: wantEqual(rows), rerunnable: true}
			return func() call { return k }
		},
	},
	{
		name:  "portal-multicall",
		why:   "browser page load: one JSON-RPC round trip carrying 64 sub-calls multiplies interceptor-pipeline cost and divides transport cost",
		codec: "jsonrpc", tracedOps: 2000,
		calls: func(fx *fixture, cl *caller) func() call {
			self := pki.MustParseDN(cl.dn).String()
			subs, want := cl.g.multicallMix(benchGroup, fx.member, fx.outsider, self)
			k := call{method: rpc.MulticallMethod, params: rpc.MulticallParams(subs), rerunnable: true}
			for _, s := range subs {
				k.subcalls = append(k.subcalls, s.Method)
			}
			k.check = func(got any) error {
				resps, err := rpc.ParseMulticallResults(got)
				if err != nil {
					return err
				}
				if len(resps) != len(want) {
					return fmt.Errorf("%d results for %d sub-calls", len(resps), len(want))
				}
				for i, r := range resps {
					if r.Fault != nil {
						return fmt.Errorf("sub-call %d (%s): %w", i, subs[i].Method, r.Fault)
					}
					if !rpc.Equal(r.Result, want[i]) {
						return fmt.Errorf("sub-call %d (%s) answered %v, want %v", i, subs[i].Method, r.Result, want[i])
					}
				}
				return nil
			}
			return func() call { return k }
		},
	},
	{
		name:  "tls-reconnect",
		why:   "paper section 4 reconnect row: every call re-dials over TLS with a proxy chain and resumes a session; handshake dominates, dispatch must not move it",
		codec: "xmlrpc", tls: true, tracedOps: 2000,
		calls: func(*fixture, *caller) func() call {
			k := call{method: "system.ping", check: wantEqual("pong"), rerunnable: true}
			return func() call { return k }
		},
		attach: func(cl *caller) error {
			cl.before = cl.c.Close // drops the idle connection, so the call must dial
			cl.after = func(context.Context, any) error {
				opened := cl.c.ConnStats().Opened
				if opened != cl.opened+1 {
					return fmt.Errorf("call opened %d connections, want 1", opened-cl.opened)
				}
				cl.opened = opened
				return nil
			}
			return nil
		},
	},
	{
		name:  "state-churn",
		why:   "80% reads, 20% writes on an on-disk store: writes discard the compiled-ACL, membership and method-list caches and append to the WAL",
		codec: "xmlrpc", disk: true, admin: true, grant: []string{"vo", "acl"}, tracedOps: 2000,
		calls: func(fx *fixture, cl *caller) func() call {
			cycle := cl.g.churnCycle()
			member, word := cl.g.dn(), cl.g.word(8)
			allow := []any{pki.MustParseDN(cl.dn).String()}
			var i, sets int
			in := false // whether member is in benchGroup by this caller's own writes
			return func() call {
				kind := cycle[i%len(cycle)]
				i++
				switch kind {
				case churnIsMember:
					return call{method: "vo.is_member", params: []any{benchGroup, member}, check: wantEqual(in), rerunnable: true}
				case churnListMethods:
					return call{method: "system.list_methods", rerunnable: true, check: func(got any) error {
						if names, _ := got.([]any); len(names) != fx.methodCount {
							return fmt.Errorf("%d method names, want %d", len(names), fx.methodCount)
						}
						return nil
					}}
				case churnEcho:
					return call{method: "system.echo", params: []any{word}, check: wantEqual(word), rerunnable: true}
				case churnMemberWrite:
					in = !in
					method := "vo.remove_member"
					if in {
						method = "vo.add_member"
					}
					return call{method: method, params: []any{benchGroup, member}, check: wantEqual(true)}
				default: // churnACLSet
					sets++
					return call{method: "acl.set", check: wantEqual(true), rerunnable: true,
						params: []any{aclPath(cl.idx, sets), "allow,deny", allow, []any{}, []any{}, []any{}}}
				}
			}
		},
	},
	{
		name:  "job-push",
		why:   "submit-to-notification latency an interactive user feels: job queue, shell exec, persistence, event fan-out and WebSocket framing do the work",
		codec: "xmlrpc", disk: true, jobs: true, tracedOps: 200,
		calls: func(*fixture, *caller) func() call {
			k := call{method: "job.submit", params: []any{"echo hello", 0, 0}, rerunnable: true, check: func(got any) error {
				if id, _ := got.(string); id == "" {
					return fmt.Errorf("no job id in %v", got)
				}
				return nil
			}}
			return func() call { return k }
		},
		attach: func(cl *caller) (err error) {
			if cl.sub, err = cl.c.Subscribe("type=job.state"); err != nil {
				return err
			}
			cl.after = func(ctx context.Context, result any) error {
				cl.lastEvent, err = cl.awaitJob(ctx, result.(string))
				return err
			}
			return nil
		},
	},
}

// awaitJob blocks on the caller's own subscription until the job's
// terminal event arrives and returns it; the job must have run to
// state done with exit code 0.
func (cl *caller) awaitJob(ctx context.Context, id string) (clarens.Event, error) {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case ev, ok := <-cl.sub.Events():
			if !ok {
				return ev, fmt.Errorf("subscription closed: %v", cl.sub.Err())
			}
			state := ev.Tags["state"]
			if ev.Tags["job_id"] != id || !jobsvc.Terminal(state) {
				continue
			}
			if code, ok := rpc.CoerceInt(ev.Data["exit_code"]); state != jobsvc.StateDone || !ok || code != 0 {
				return ev, fmt.Errorf("job %s ended %s with exit code %v", id, state, ev.Data["exit_code"])
			}
			return ev, nil
		case <-ctx.Done():
			return clarens.Event{}, ctx.Err()
		case <-timeout.C:
			return clarens.Event{}, fmt.Errorf("no terminal event for job %s", id)
		}
	}
}
