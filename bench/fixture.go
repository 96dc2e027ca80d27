package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clarens"
	"clarens/internal/pki"
)

const (
	// benchGroup is the VO group the membership calls ask about.
	benchGroup = "benchvo"
	// adminDN administers benchGroup; it never issues a call.
	adminDN = "/O=bench/OU=People/CN=bench admin"
	// maxCallers bounds the caller indices a fixture prepares DNs for:
	// the load callers plus the traced run's own.
	maxCallers = 8
	// streamFixture is the seed stream of fixture-level inputs; caller i
	// draws from stream i.
	streamFixture = 1000
)

// pkiSet is the credentials of a TLS fixture: the server's host
// certificate and the client's 2-level RFC 3820 proxy chain (user →
// portal → job agent, paper §2.6).
type pkiSet struct {
	ca    *pki.CA
	host  *pki.Identity
	proxy *pki.Identity
}

func newPKI(userDN string) (*pkiSet, error) {
	ca, err := pki.NewCA(pki.MustParseDN("/O=bench/CN=CA"))
	if err != nil {
		return nil, err
	}
	host, err := ca.IssueHost(pki.MustParseDN(`/O=bench/OU=Services/CN=host\/localhost`),
		[]string{"localhost", "127.0.0.1"}, time.Hour)
	if err != nil {
		return nil, err
	}
	dn, err := pki.ParseDN(userDN)
	if err != nil {
		return nil, err
	}
	id, err := ca.IssueUser(dn, time.Hour)
	if err != nil {
		return nil, err
	}
	for level := 0; level < 2; level++ {
		if id, err = pki.NewProxy(id, time.Hour); err != nil {
			return nil, err
		}
	}
	return &pkiSet{ca: ca, host: host, proxy: id}, nil
}

// fixture is one workload's server with the state its calls expect.
type fixture struct {
	w    *workload
	seed int64
	dir  string
	srv  *clarens.Server
	pki  *pkiSet

	member, outsider string // DNs inside and outside benchGroup
	methodCount      int    // what system.list_methods must return
}

func callerDN(seed int64, idx int) string { return newGen(seed, idx).dn() }

// newFixture builds the workload's server. With listen false the server
// is never bound to a port: the traced run replays requests into its
// handler directly.
func newFixture(w *workload, seed int64, listen bool) (fx *fixture, err error) {
	fx = &fixture{w: w, seed: seed}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	g := newGen(seed, streamFixture)
	fx.member, fx.outsider = g.dn(), g.dn()
	if fx.dir, err = os.MkdirTemp("", "clarens-bench-"+w.name+"-"); err != nil {
		return nil, err
	}
	cfg := clarens.Config{Name: "bench-" + w.name, AdminDNs: []string{adminDN}}
	if w.admin {
		for i := 0; i < maxCallers; i++ {
			cfg.AdminDNs = append(cfg.AdminDNs, callerDN(seed, i))
		}
	}
	if w.disk {
		cfg.DataDir = filepath.Join(fx.dir, "db")
	}
	if w.jobs {
		umap := filepath.Join(fx.dir, "user_map")
		if err = os.WriteFile(umap, []byte("bench : /O=bench/OU=People ;;\n"), 0o644); err != nil {
			return nil, err
		}
		cfg.ShellUserMap = umap
		cfg.EnableJobs = true
		cfg.JobWorkers = 2
	}
	if w.tls {
		if fx.pki, err = newPKI(g.dn()); err != nil {
			return nil, err
		}
		cfg.TLS = &clarens.TLSConfig{Identity: fx.pki.host, ClientCAs: fx.pki.ca.Pool(), TicketRotate: time.Hour}
	}
	if fx.srv, err = clarens.NewServer(cfg); err != nil {
		return nil, err
	}
	vom := fx.srv.Core().VO()
	admin := pki.MustParseDN(adminDN)
	if err = vom.CreateGroup(benchGroup, admin); err != nil {
		return nil, err
	}
	if err = vom.AddMember(benchGroup, admin, fx.member); err != nil {
		return nil, err
	}
	for _, module := range w.grant {
		if err = fx.srv.GrantMethod(module, nil, []string{"admins"}); err != nil {
			return nil, err
		}
	}
	if err = fx.srv.Register(benchService{}); err != nil {
		return nil, err
	}
	fx.methodCount = len(fx.srv.Core().MethodNames())
	if listen {
		if err = fx.srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

func (fx *fixture) close() {
	if fx.srv != nil {
		fx.srv.Close()
	}
	if fx.dir != "" {
		os.RemoveAll(fx.dir)
	}
}

// session mints a session for dn and returns its token.
func (fx *fixture) session(dn string) (string, error) {
	sess, err := fx.srv.NewSessionFor(pki.MustParseDN(dn))
	if err != nil {
		return "", err
	}
	return sess.ID, nil
}

// newCaller dials one closed-loop caller: its own connection, session
// and seed stream, following the workload's sequence of calls.
func (fx *fixture) newCaller(idx int, opts ...clarens.ClientOption) (*caller, error) {
	cl := &caller{idx: idx, g: newGen(fx.seed, idx)}
	cl.dn = cl.g.dn() // the stream's first draw, as callerDN has it
	token, err := fx.session(cl.dn)
	if err != nil {
		return nil, err
	}
	opts = append(opts, clarens.WithProtocol(fx.w.codec), clarens.WithSession(token))
	if fx.pki != nil {
		opts = append(opts, clarens.WithRootCAs(fx.pki.ca.Pool()), clarens.WithIdentity(fx.pki.proxy))
	}
	if cl.c, err = clarens.Dial(fx.srv.URL(), opts...); err != nil {
		return nil, err
	}
	cl.next = fx.w.calls(fx, cl)
	if fx.w.attach != nil {
		if err := fx.w.attach(cl); err != nil {
			cl.close()
			return nil, err
		}
	}
	return cl, nil
}

// newCallers dials n callers and has each complete one verified
// operation, so lazy set-up is paid before anything is timed.
func (fx *fixture) newCallers(n int) ([]*caller, error) {
	callers := make([]*caller, 0, n)
	for i := 0; i < n; i++ {
		cl, err := fx.newCaller(i)
		if err == nil {
			callers = append(callers, cl)
			err = cl.do(context.Background())
		}
		if err != nil {
			closeCallers(callers)
			return nil, fmt.Errorf("caller %d: %w", i, err)
		}
	}
	return callers, nil
}

func closeCallers(callers []*caller) {
	for _, cl := range callers {
		cl.close()
	}
}

// benchService is registered on every fixture: a no-op method whose
// dispatch cost is the interceptor pipeline alone, and a method that
// always faults, for the failure-accounting test.
type benchService struct{}

func (benchService) Name() string { return "benchsvc" }

func (benchService) Methods() []clarens.Method {
	return []clarens.Method{
		{Name: "benchsvc.noop", Public: true, Handler: func(*clarens.Context, clarens.Params) (any, error) {
			return nil, nil
		}},
		{Name: "benchsvc.fault", Public: true, Handler: func(*clarens.Context, clarens.Params) (any, error) {
			return nil, fmt.Errorf("benchsvc.fault always faults")
		}},
	}
}
