package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"clarens"
	"clarens/internal/acl"
	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/pubsub"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/telemetry"
	"clarens/internal/ws"
)

// codecs maps the ledger's codec names to the wire formats.
var codecs = map[string]rpc.Codec{"xmlrpc": xmlrpc.New(), "jsonrpc": jsonrpc.New(), "soaprpc": soaprpc.New()}

// labWorkload is the server the traced run measures the connection, job
// and push layers on, whatever the workload: TLS with a proxy chain, an
// on-disk store, the shell and job services. It carries no load.
var labWorkload = &workload{name: "lab", codec: "xmlrpc", tls: true, disk: true, jobs: true,
	calls: func(*fixture, *caller) func() call { return nil }}

// runLayers is the traced run of one workload. It never feeds the
// end-to-end numbers. Three passes fill the ledger: a normal closed-loop
// window with the untimed bookkeeping on (counts, process-level
// numbers), a pass of sampled operations each followed by a replay of
// its bytes through every layer's public functions (the spans), and
// per-call timings of single layer functions on the workload's own
// payload and server configuration.
func runLayers(w *workload, o *options) (*loadResult, map[string]float64, []string, error) {
	l := &ledger{m: map[string]float64{}, budget: o.budget}
	fx, err := newFixture(w, o.seed, true)
	if err != nil {
		return nil, nil, nil, err
	}
	defer fx.close()
	p := o.load()
	p.window /= 2
	p.warmup = min(p.warmup, time.Second)
	load, err := bookkeepingWindow(fx, p, l.m)
	if err != nil {
		return nil, nil, nil, err
	}

	// The twin is the same server, never bound to a port: it is fed each
	// traced operation's bytes in lockstep, so replays meet the state the
	// real server had, and writes can be replayed at all.
	twin, err := newFixture(w, o.seed, false)
	if err != nil {
		return nil, nil, nil, err
	}
	defer twin.close()
	n := w.tracedOps
	if o.tracedOps > 0 {
		n = o.tracedOps
	}
	tr, probe, err := tracedPass(fx, twin, p.callers, n, l.m)
	if err != nil {
		return nil, nil, nil, err
	}
	path, err := tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	notes := append([]string{"  spans written to " + path}, layerTable(tr.layers())...)

	if err := benchCodecs(probe, l); err != nil {
		return nil, nil, nil, err
	}
	if err := benchServer(twin, probe, l); err != nil {
		return nil, nil, nil, err
	}
	if err := benchClient(w.codec, probe, l); err != nil {
		return nil, nil, nil, err
	}
	benchPublish(l)
	lab, err := newFixture(labWorkload, o.seed, true)
	if err != nil {
		return nil, nil, nil, err
	}
	defer lab.close()
	for _, bench := range []func(*fixture, *ledger) error{benchHandshake, benchJobs, benchPush} {
		if err := bench(lab, l); err != nil {
			return nil, nil, nil, err
		}
	}
	return load, l.m, notes, nil
}

// ledger collects the per-layer metrics of one traced run.
type ledger struct {
	m map[string]float64
	// budget is how long perCall times one function.
	budget time.Duration
}

// perCall is the median cost in nanoseconds of one call of f, timed in
// batches of about 200 µs until the budget is spent.
func (l *ledger) perCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 200*time.Microsecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var batches []float64
	for stop := time.Now().Add(l.budget); len(batches) < 5 || time.Now().Before(stop); {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(t0))/float64(n))
	}
	return median(batches)
}

// eachCall is the median cost in nanoseconds of f over n calls timed
// one by one, each preceded by an untimed prep.
func eachCall(n int, prep, f func()) float64 {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		prep()
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0)))
	}
	return median(times)
}

// allocsPer is the mean number of heap allocations of one call of f.
func allocsPer(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// countConn counts the bytes of one connection in both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// bookkeepingWindow runs a normal closed-loop window with counters read
// at its two quiescent ends — before the first warm-up operation and
// after the last caller stopped — so per-operation counts divide by
// every operation the callers made and repeat exactly.
func bookkeepingWindow(fx *fixture, p loadParams, m map[string]float64) (*loadResult, error) {
	var wire atomic.Int64
	dial := clarens.WithDialer(func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return countConn{conn, &wire}, nil
	})
	callers := make([]*caller, 0, p.callers)
	defer func() { closeCallers(callers) }()
	for i := 0; i < p.callers; i++ {
		cl, err := fx.newCaller(i, dial)
		if err != nil {
			return nil, err
		}
		callers = append(callers, cl)
	}
	reg := fx.srv.Core().Telemetry()
	conns := func() (s clarens.ConnStats) {
		for _, cl := range callers {
			st := cl.c.ConnStats()
			s.Opened, s.Handshakes, s.Resumed = s.Opened+st.Opened, s.Handshakes+st.Handshakes, s.Resumed+st.Resumed
		}
		return s
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	req0, faults0, _ := fx.srv.Core().Stats().Snapshot()
	dropped0 := reg.CounterValues()["clarens.pubsub.dropped"]

	load := runLoad(callers, p)

	runtime.ReadMemStats(&mem1)
	req1, faults1, _ := fx.srv.Core().Stats().Snapshot()
	conn1, wire1 := conns(), wire.Load()
	ops := float64(max(load.total, 1))
	m["proc.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / ops
	m["proc.alloc_kib_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / ops
	m["proc.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	m["proc.peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	m["proc.cpu_busy_ratio"] = load.cpu.Seconds() / (load.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	m["client.p99_ms"] = load.window().quantile(0.99)
	m["client.conns_opened_per_op"] = float64(conn1.Opened) / ops
	m["client.tls_resumed_ratio"] = float64(conn1.Resumed) / float64(max(conn1.Handshakes, 1))
	m["transport.wire_bytes_per_op"] = float64(wire1) / ops
	m["core.requests_per_op"] = float64(req1-req0) / ops
	m["core.faults"] = float64(faults1 - faults0)
	m["pubsub.dropped"] = float64(reg.CounterValues()["clarens.pubsub.dropped"] - dropped0)
	if load.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %v\n", fx.w.name, load.firstErr)
	}
	return load, nil
}

// probe is the first traced call that may be replayed any number of
// times, with the real server's answer: the workload's own payload for
// the per-call timings.
type probe struct {
	k      call
	result any
	req    *http.Request // replays k into the twin's handler
	body   []byte
}

// writes names the methods that put a record into the store.
var writes = map[string]bool{"vo.add_member": true, "vo.remove_member": true, "acl.set": true, "job.submit": true}

// replay holds what the traced pass needs to make one more caller's
// operations for real and then replay each through the layers.
type replay struct {
	fx, twin *fixture
	cl       *caller
	tr       *tracer
	token    string // the caller's session on the twin
	dn       pki.DN
	codec    rpc.Codec
	store    *telemetry.SpanStore
	bus      *benchBus
	probe    *probe
}

func newReplay(fx, twin *fixture, idx int) (r *replay, err error) {
	r = &replay{fx: fx, twin: twin, tr: newTracer(), codec: codecs[fx.w.codec],
		store: telemetry.NewSpanStore(telemetry.SpanStoreOptions{}), bus: newBenchBus()}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.cl, err = fx.newCaller(idx); err != nil {
		return nil, err
	}
	r.dn = pki.MustParseDN(r.cl.dn)
	if r.token, err = twin.session(r.cl.dn); err != nil {
		return nil, err
	}
	return r, nil
}

// spanName names one step of the workload's own codec.
func (r *replay) spanName(step string) string { return "rpc." + r.fx.w.codec + "." + step }

func (r *replay) close() {
	if r.cl != nil {
		r.cl.close()
	}
	r.bus.close()
}

// tracedPass samples n operations of one more caller. Each is first
// made for real and timed as the root span; then its exact bytes are
// replayed, after the fact, through each layer's public function, one
// span per layer, linked to the span it is a part of.
func tracedPass(fx, twin *fixture, idx, n int, m map[string]float64) (*tracer, *probe, error) {
	r, err := newReplay(fx, twin, idx)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()

	// The same operations untraced first, for the overhead of tracing:
	// spans kept in memory and replays run between the real calls.
	untraced := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := r.cl.do(context.Background()); err != nil {
			return nil, nil, fmt.Errorf("untraced operation %d: %w", i, err)
		}
		untraced = append(untraced, us(time.Since(t0)))
	}
	for op := 0; op < n; op++ {
		if err := r.operation(op); err != nil {
			return nil, nil, fmt.Errorf("traced operation %d: %w", op, err)
		}
	}
	if r.probe == nil {
		return nil, nil, fmt.Errorf("%s: no traced call may be replayed", fx.w.name)
	}
	byName := map[string]*layerTimes{}
	for _, l := range r.tr.layers() {
		byName[l.name] = l
	}
	m["client.call_us"] = median(byName[rootSpan].duration)
	m["transport.self_us"] = median(byName[rootSpan].self)
	m["core.serve_http_us"] = median(byName["core.serve_http"].duration)
	m["core.dispatch_us"] = median(byName["core.dispatch"].duration)
	m["bench.trace_overhead_ratio"] = m["client.call_us"] / median(untraced)
	return r.tr, r.probe, nil
}

// operation makes the caller's next operation and replays it.
func (r *replay) operation(op int) error {
	tr, tcore := r.tr, r.twin.srv.Core()
	k := r.cl.next()
	t0 := time.Now()
	result, err := r.cl.doCall(context.Background(), k)
	t1 := time.Now()
	if err != nil {
		return err
	}
	tr.record(op, rootSpan, "", t0, t1)

	var body bytes.Buffer
	tr.timed(op, r.spanName("encode_request"), rootSpan, func() {
		err = r.codec.EncodeRequest(&body, &rpc.Request{Method: k.method, Params: k.params, ID: op})
	})
	if err != nil {
		return err
	}
	hreq := replayRequest(r.twin, r.codec, r.token, body.Bytes())
	rec := httptest.NewRecorder()
	tr.timed(op, "core.serve_http", rootSpan, func() { tcore.Handler().ServeHTTP(rec, hreq) })
	var resp *rpc.Response
	tr.timed(op, r.spanName("decode_response"), rootSpan, func() {
		resp, err = r.codec.DecodeResponse(bytes.NewReader(rec.Body.Bytes()))
	})
	if err == nil && resp.Fault != nil {
		err = resp.Fault
	}
	if err != nil {
		return fmt.Errorf("replay of %s: %w", k.method, err)
	}

	var dreq *rpc.Request
	tr.timed(op, r.spanName("decode_request"), "core.serve_http", func() {
		dreq, err = r.codec.DecodeRequest(bytes.NewReader(body.Bytes()))
	})
	if err != nil {
		return err
	}
	// A call that may not run twice has no dispatch span; the calls its
	// dispatch makes then hang off the handler's span.
	work := "core.serve_http"
	if k.rerunnable {
		work = "core.dispatch"
		tr.timed(op, work, "core.serve_http", func() { resp = tcore.Dispatch(hreq, r.codec.Name(), dreq) })
		if r.probe == nil {
			r.probe = &probe{k: k, result: result, req: hreq, body: body.Bytes()}
		}
	}
	var out bytes.Buffer
	tr.timed(op, r.spanName("encode_response"), "core.serve_http", func() { err = r.codec.EncodeResponse(&out, resp) })
	if err != nil {
		return err
	}

	// The calls into the state layers that the dispatches of this
	// operation make: one session lookup, then per dispatched method one
	// ACL walk, one telemetry observation and one span record.
	dispatched := append([]string{k.method}, k.subcalls...)
	tr.timed(op, "session.get", work, func() { tcore.Sessions().Get(r.token) })
	tr.timed(op, "acl.authorize", work, func() {
		for _, name := range dispatched {
			tcore.MethodACL().AuthorizeDetail(name, r.dn)
		}
	})
	tr.timed(op, "telemetry.observe_rpc", work, func() {
		for _, name := range dispatched {
			tcore.Telemetry().ObserveRPC(name, false, 50*time.Microsecond)
		}
	})
	tr.timed(op, "telemetry.span_record", work, func() {
		for i, name := range dispatched {
			r.store.Record(telemetry.Span{Trace: "bench", Span: name, Method: name, Start: t0, Duration: 50 * time.Microsecond}, i == 0, false)
		}
	})
	var members, puts int
	for _, name := range dispatched {
		if name == "vo.is_member" {
			members++
		}
		if writes[name] {
			puts++
		}
	}
	if members > 0 {
		member := pki.MustParseDN(r.fx.member)
		tr.timed(op, "vo.is_member", work, func() {
			for i := 0; i < members; i++ {
				tcore.VO().IsMember(benchGroup, member)
			}
		})
	}
	if puts > 0 {
		tr.timed(op, "db.put", work, func() {
			for i := 0; i < puts; i++ {
				err = tcore.Store().Put("benchsvc", "replay", putValue)
			}
		})
		if err != nil {
			return err
		}
	}
	if r.cl.sub != nil {
		return r.job(op, result.(string), t1, work)
	}
	return nil
}

// job adds what a job-push operation does after the submit call was
// answered: the job's wait in the queue and its run, from the real
// server's record of it, and the push of its terminal event, received
// when the operation ended. The job may start while the submit call is
// still being answered, so these spans can overlap the call's.
func (r *replay) job(op int, id string, received time.Time, work string) error {
	job, ok := r.fx.srv.Jobs.Get(id)
	if !ok {
		return fmt.Errorf("job %s is not in the server's table", id)
	}
	r.tr.record(op, "jobsvc.queue_wait", rootSpan, job.Submitted, job.Started)
	r.tr.record(op, "jobsvc.run", rootSpan, job.Started, job.Finished)
	var err error
	r.tr.timed(op, "shellsvc.exec", "jobsvc.run", func() { _, _, err = r.twin.srv.Shell.ExecAs(r.dn, "echo hello") })
	if err != nil {
		return err
	}
	r.tr.record(op, "pubsub.delivery", rootSpan, r.cl.lastEvent.Time, received)
	r.tr.timed(op, "pubsub.publish", work, r.bus.publish)
	return nil
}

// putValue is the record the replayed store writes put: the size of a
// small JSON document such as a group or an ACL.
var putValue = bytes.Repeat([]byte("x"), 160)

// replayRequest is the HTTP request the client would have sent, aimed
// at the twin: the same body bytes and headers, the twin's own session
// token, and the client's certificate chain where the workload has one.
func replayRequest(twin *fixture, codec rpc.Codec, token string, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
	r.Header.Set("Content-Type", codec.ContentTypes()[0])
	r.Header.Set(core.SessionHeader, token)
	if twin.pki != nil {
		chain := append([]*x509.Certificate{twin.pki.proxy.Cert}, twin.pki.proxy.Chain...)
		r.TLS = &tls.ConnectionState{PeerCertificates: chain}
	}
	return r
}

// benchCodecs times all three codecs on the probe's payload, whichever
// codec the workload speaks.
func benchCodecs(pr *probe, l *ledger) error {
	m := l.m
	req := &rpc.Request{Method: pr.k.method, Params: pr.k.params, ID: 1}
	result, err := rpc.Normalize(pr.result)
	if err != nil {
		return err
	}
	resp := &rpc.Response{Result: result, ID: 1}
	m["rpc.normalize_us"] = l.perCall(func() { rpc.Normalize(pr.result) }) / 1e3
	for _, name := range codecNames {
		c := codecs[name]
		var reqBytes, respBytes bytes.Buffer
		if err := c.EncodeRequest(&reqBytes, req); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := c.EncodeResponse(&respBytes, resp); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if _, err := c.DecodeRequest(bytes.NewReader(reqBytes.Bytes())); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got, err := c.DecodeResponse(bytes.NewReader(respBytes.Bytes())); err != nil || !rpc.Equal(got.Result, result) {
			return fmt.Errorf("%s: the payload does not survive a round trip (%v)", name, err)
		}
		var buf bytes.Buffer
		steps := map[string]func(){
			"encode_request":  func() { buf.Reset(); c.EncodeRequest(&buf, req) },
			"decode_request":  func() { c.DecodeRequest(bytes.NewReader(reqBytes.Bytes())) },
			"encode_response": func() { buf.Reset(); c.EncodeResponse(&buf, resp) },
			"decode_response": func() { c.DecodeResponse(bytes.NewReader(respBytes.Bytes())) },
		}
		for step, f := range steps {
			m["rpc."+name+"."+step+"_us"] = l.perCall(f) / 1e3
		}
		m["rpc."+name+".allocs_per_roundtrip"] = allocsPer(50, func() {
			for _, f := range steps {
				f()
			}
		})
	}
	return nil
}

// benchServer times the server-side layers on the twin: the workload's
// own server configuration, carrying no load.
func benchServer(twin *fixture, pr *probe, l *ledger) error {
	m := l.m
	tcore := twin.srv.Core()
	codec := codecs[twin.w.codec]
	dreq, err := codec.DecodeRequest(bytes.NewReader(pr.body))
	if err != nil {
		return err
	}
	noop := &rpc.Request{Method: "benchsvc.noop"}
	if resp := tcore.Dispatch(pr.req, codec.Name(), noop); resp.Fault != nil {
		return resp.Fault
	}
	m["core.pipeline_us"] = l.perCall(func() { tcore.Dispatch(pr.req, codec.Name(), noop) }) / 1e3
	m["core.dispatch_allocs"] = allocsPer(50, func() { tcore.Dispatch(pr.req, codec.Name(), dreq) })

	admin, member := pki.MustParseDN(adminDN), pki.MustParseDN(twin.member)
	token := pr.req.Header.Get(core.SessionHeader)
	m["session.get_ns"] = l.perCall(func() { tcore.Sessions().Get(token) })
	m["session.new_us"] = l.perCall(func() { _, err = tcore.Sessions().New(member) }) / 1e3
	if err != nil {
		return err
	}
	m["acl.authorize_ns"] = l.perCall(func() { tcore.MethodACL().AuthorizeDetail(pr.k.method, member) })
	open := &acl.ACL{AllowDNs: []string{acl.EntryAny}}
	m["acl.authorize_after_set_us"] = eachCall(200,
		func() { err = tcore.MethodACL().Set("benchacl.probe", open) },
		func() { tcore.MethodACL().AuthorizeDetail(pr.k.method, member) }) / 1e3
	if err != nil {
		return err
	}
	m["vo.is_member_ns"] = l.perCall(func() { tcore.VO().IsMember(benchGroup, member) })
	in := false
	m["vo.is_member_after_write_us"] = eachCall(200,
		func() {
			if in = !in; in {
				err = tcore.VO().AddMember(benchGroup, admin, twin.outsider)
			} else {
				err = tcore.VO().RemoveMember(benchGroup, admin, twin.outsider)
			}
		},
		func() { tcore.VO().IsMember(benchGroup, member) }) / 1e3
	if err != nil {
		return err
	}

	if err := tcore.Store().Put("benchsvc", "probe", putValue); err != nil {
		return err
	}
	m["db.get_ns"] = l.perCall(func() { tcore.Store().Get("benchsvc", "probe") })
	wal := filepath.Join(twin.dir, "db", "wal.log")
	size := func() int64 {
		if st, err := os.Stat(wal); err == nil {
			return st.Size()
		}
		return 0 // an in-memory store has no log
	}
	before, puts := size(), 0
	m["db.put_us"] = l.perCall(func() { puts++; err = tcore.Store().Put("benchsvc", "probe", putValue) }) / 1e3
	if err != nil {
		return err
	}
	m["db.wal_bytes_per_put"] = float64(size()-before) / float64(puts)

	m["telemetry.observe_rpc_ns"] = l.perCall(func() { tcore.Telemetry().ObserveRPC(pr.k.method, false, 50*time.Microsecond) })
	store := telemetry.NewSpanStore(telemetry.SpanStoreOptions{})
	sp := telemetry.Span{Trace: "bench", Span: "probe", Method: pr.k.method, Start: time.Now(), Duration: 50 * time.Microsecond}
	m["telemetry.span_record_ns"] = l.perCall(func() { store.Record(sp, true, false) })
	return nil
}

// benchBus is an event bus with two subscribers that keep up, as the
// job service's publishes meet on a server with two watchers.
type benchBus struct {
	bus  *pubsub.Bus
	subs []*pubsub.Subscription
	done chan struct{}
}

func newBenchBus() *benchBus {
	b := &benchBus{bus: pubsub.New(), done: make(chan struct{})}
	for i := 0; i < 2; i++ {
		sub := b.bus.Subscribe(fmt.Sprint("bench", i), nil, 1024)
		b.subs = append(b.subs, sub)
		go func() {
			for range sub.Events() {
			}
			b.done <- struct{}{}
		}()
	}
	return b
}

func (b *benchBus) publish() {
	b.bus.Publish(pubsub.Event{Type: "benchsvc.tick", Tags: map[string]string{"service": "benchsvc"}})
}

func (b *benchBus) close() {
	b.bus.Close()
	for range b.subs {
		<-b.done
	}
}

func benchPublish(l *ledger) {
	b := newBenchBus()
	defer b.close()
	l.m["pubsub.publish_ns"] = l.perCall(b.publish)
}

// benchClient times the client stack alone: Client.CallCtx of the probe
// against a responder that answers canned bytes over an in-memory pipe,
// so there is no kernel, no server and no wire; the codec's own share
// is subtracted.
func benchClient(codecName string, pr *probe, l *ledger) error {
	m := l.m
	codec := codecs[codecName]
	var body bytes.Buffer
	result, err := rpc.Normalize(pr.result)
	if err != nil {
		return err
	}
	if err := codec.EncodeResponse(&body, &rpc.Response{Result: result, ID: 1}); err != nil {
		return err
	}
	answer := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
		codec.ContentTypes()[0], body.Len(), body.Bytes())
	served := make(chan struct{}, 16) // one token per responder that has ended; the client opens one
	c, err := clarens.Dial("http://canned.invalid", clarens.WithProtocol(codec.Name()), clarens.WithSession("canned"),
		clarens.WithDialer(func(string, string) (net.Conn, error) {
			near, far := net.Pipe()
			go func() {
				defer func() { served <- struct{}{} }()
				defer far.Close()
				br := bufio.NewReader(far)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if _, err := far.Write(answer); err != nil {
						return
					}
				}
			}()
			return near, nil
		}))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := c.CallCtx(ctx, pr.k.method, pr.k.params...); err != nil {
		return fmt.Errorf("canned responder: %w", err)
	}
	whole := l.perCall(func() { c.CallCtx(ctx, pr.k.method, pr.k.params...) }) / 1e3
	opened := c.ConnStats().Opened
	c.Close()
	for i := int64(0); i < opened; i++ {
		<-served
	}
	own := m["rpc."+codecName+".encode_request_us"] + m["rpc."+codecName+".decode_response_us"]
	m["client.self_us"] = max(whole-own, 0)
	return nil
}

// benchHandshake times proxy-chain verification and raw crypto/tls
// reconnects on the lab server, with no client stack: dial, one
// system.ping, read to EOF (which also lands the TLS 1.3 ticket in the
// cache). A full handshake has the server verify the chain after the
// dial returns, so the whole exchange is timed; a resumed one restores
// the identity from the session ticket.
func benchHandshake(lab *fixture, l *ledger) error {
	chain := lab.pki.proxy
	var err error
	l.m["pki.verify_proxy_us"] = l.perCall(func() { _, err = pki.VerifyProxy(chain.Cert, chain.Chain, lab.pki.ca.Pool()) }) / 1e3
	if err != nil {
		return err
	}
	addr := strings.TrimPrefix(lab.srv.URL(), "https://")
	var ping bytes.Buffer
	if err := codecs["xmlrpc"].EncodeRequest(&ping, &rpc.Request{Method: "system.ping"}); err != nil {
		return err
	}
	request := fmt.Appendf(nil, "POST /rpc HTTP/1.1\r\nHost: bench\r\nContent-Type: text/xml\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		ping.Len(), ping.Bytes())
	var cache tls.ClientSessionCache
	var resumed, dials int
	reconnect := func() {
		var conn *tls.Conn
		conn, err = tls.Dial("tcp", addr, &tls.Config{ServerName: "localhost", RootCAs: lab.pki.ca.Pool(),
			Certificates: []tls.Certificate{chain.TLSCertificate()}, ClientSessionCache: cache})
		if err != nil {
			return
		}
		defer conn.Close()
		dials++
		if conn.ConnectionState().DidResume {
			resumed++
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err = conn.Write(request); err == nil {
			_, err = io.Copy(io.Discard, conn)
		}
	}
	l.m["transport.handshake_full_us"] = eachCall(40, func() { cache = tls.NewLRUClientSessionCache(4) }, reconnect) / 1e3
	if err != nil {
		return err
	}
	if resumed != 0 {
		return fmt.Errorf("%d of %d cold reconnects resumed a session", resumed, dials)
	}
	reconnect() // its ticket seeds the cache for the warm reconnects
	resumed, dials = 0, 0
	l.m["transport.handshake_resumed_us"] = eachCall(40, func() {}, reconnect) / 1e3
	if err != nil {
		return err
	}
	if resumed != dials {
		return fmt.Errorf("%d of %d warm reconnects resumed a session", resumed, dials)
	}
	return nil
}

// benchJobs runs jobs one at a time on the idle lab server: submit
// cost, then queue wait and run time from the job's own record, and the
// state events each job publishes.
func benchJobs(lab *fixture, l *ledger) error {
	chain := lab.pki.proxy
	dn := pki.EffectiveDNFromChain(append([]*x509.Certificate{chain.Cert}, chain.Chain...))
	events := lab.srv.Events().Subscribe("bench", func(ev *pubsub.Event) bool { return ev.Type == "job.state" }, 4096)
	const jobs = 100
	var submit, wait, run []float64
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		job, err := lab.srv.Jobs.Submit(dn, "echo hello", 0, 0)
		submit = append(submit, us(time.Since(t0)))
		if err != nil {
			return err
		}
		if job, err = lab.srv.Jobs.Wait(job.ID, 10*time.Second); err != nil {
			return err
		}
		wait = append(wait, ms(job.Started.Sub(job.Submitted)))
		run = append(run, ms(job.Finished.Sub(job.Started)))
	}
	events.Cancel()
	seen := 0
	for range events.Events() {
		seen++
	}
	l.m["jobsvc.submit_us"], l.m["jobsvc.queue_wait_ms"], l.m["jobsvc.run_ms"] = median(submit), median(wait), median(run)
	l.m["jobsvc.events_per_job"] = float64(seen) / jobs
	var err error
	l.m["shellsvc.exec_us"] = l.perCall(func() { _, _, err = lab.srv.Shell.ExecAs(dn, "echo hello") }) / 1e3
	return err
}

// benchPush times the push plane of the lab server: one event at a time
// from the bus to a /ws subscriber, then application-level ping-pong
// round trips on a /ws connection.
func benchPush(lab *fixture, l *ledger) error {
	if err := lab.srv.GrantMethod("benchsvc", []string{clarens.EntryAny}, nil); err != nil {
		return err
	}
	cl, err := lab.newCaller(0)
	if err != nil {
		return err
	}
	defer cl.close()
	if cl.sub, err = cl.c.Subscribe("type=benchsvc.*"); err != nil {
		return err
	}
	var delivery []float64
	for i := 0; i < 200; i++ {
		lab.srv.Events().Publish(pubsub.Event{Type: "benchsvc.tick", Time: time.Now()})
		select {
		case ev := <-cl.sub.Events():
			delivery = append(delivery, ms(time.Since(ev.Time)))
		case <-time.After(10 * time.Second):
			return fmt.Errorf("pushed event %d never arrived", i)
		}
	}
	l.m["pubsub.delivery_ms"] = median(delivery)

	tc := &tls.Config{RootCAs: lab.pki.ca.Pool(), Certificates: []tls.Certificate{lab.pki.proxy.TLSCertificate()}}
	conn, err := ws.Dial(lab.srv.URL()+"/ws", http.Header{core.SessionHeader: {cl.c.Session()}}, tc, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	l.m["ws.echo_roundtrip_us"] = l.perCall(func() {
		if err = conn.WriteMessage(ws.OpText, []byte(`{"op":"ping"}`)); err != nil {
			return
		}
		for f := (pubsub.Frame{}); err == nil && f.Op != pubsub.OpPong; {
			var data []byte
			if _, data, err = conn.ReadMessage(); err == nil {
				err = json.Unmarshal(data, &f)
			}
		}
	}) / 1e3
	return err
}
