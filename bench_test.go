// Benchmarks regenerating the paper's evaluation. The paper map, one
// experiment ID per figure (E) or ablation (A):
//
//	E1 BenchmarkFigure4*      — Figure 4: system.list_methods through both
//	                            access checks, >30 strings per reply;
//	                            Network sweeps 1/8/32/79 async clients
//	E2 BenchmarkTLSOverhead*  — §4 TLS table: plaintext vs TLS, keep-alive
//	                            (Plain, Encrypted) vs reconnect per call
//	                            (ReconnectPlain, Handshake)
//	E3 BenchmarkClarensEcho, BenchmarkBaselineGT3* — §4 footnote and §5:
//	                            trivial-method rate, Clarens vs the GT3-like
//	                            container
//	E4 BenchmarkFileStreaming — §1 SC2003 streaming: sendfile GET throughput
//	A1 BenchmarkDispatchAuth  — cost of the session+ACL pipeline
//	A2 BenchmarkProtocols     — XML-RPC vs JSON-RPC vs SOAP
//	A3 BenchmarkACLDepth      — hierarchical ACL evaluation depth
//	A4 BenchmarkVOMembership  — VO tree membership resolution
//	A5 BenchmarkDiscovery     — local-cache discovery queries
//	A6 BenchmarkSessions      — session create/lookup, memory vs disk
//
// The paper figures, E1–E4 (README "Paper figures" keeps the last
// committed numbers):
//
//	go test -run '^$' -bench 'Figure4|TLSOverhead|ClarensEcho|BaselineGT3|FileStreaming' .
package clarens

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clarens/internal/acl"
	"clarens/internal/baseline"
	"clarens/internal/core"
	"clarens/internal/db"
	"clarens/internal/monalisa"
	"clarens/internal/pki"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
	"clarens/internal/session"
	"clarens/internal/vo"
)

// benchServer starts a full in-process server as in the paper's test
// (plaintext, anonymous clients, system module open, both checks live).
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := NewServer(Config{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	return srv
}

// --- E1 / Figure 4 ---

// BenchmarkFigure4ListMethods measures the exact per-request work of the
// paper's Figure 4: decode XML-RPC, session lookup (check 1), ACL walk
// (check 2), database scan of all registered methods, serialization of
// the >30 method names. In-process handler to exclude loopback syscalls.
func BenchmarkFigure4ListMethods(b *testing.B) {
	srv, err := NewServer(Config{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var wire bytes.Buffer
	xmlrpc.New().EncodeRequest(&wire, &rpc.Request{Method: "system.list_methods"})
	body := wire.Bytes()
	handler := srv.Core().Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body))
		req.Header.Set("Content-Type", "text/xml")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d", w.Code)
		}
	}
}

// BenchmarkFigure4Network runs the same workload over real loopback
// sockets with the paper's asynchronous-client pattern.
func BenchmarkFigure4Network(b *testing.B) {
	for _, clients := range []int{1, 8, 32, 79} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := benchServer(b)
			c, err := Dial(srv.URL(), WithMaxConns(clients+4))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.CallAsync(clients, 2*clients, "system.list_methods") // warm
			b.ResetTimer()
			res := c.CallAsync(clients, b.N, "system.list_methods")
			b.StopTimer()
			if res.FirstErr != nil {
				b.Fatal(res.FirstErr)
			}
			b.ReportMetric(res.Rate(), "req/s")
		})
	}
}

// --- E2 / TLS overhead ---

func benchTLSServer(b *testing.B) (*Server, *pki.CA, *pki.Identity) {
	b.Helper()
	ca, err := pki.NewCA(pki.MustParseDN("/O=bench/CN=CA"))
	if err != nil {
		b.Fatal(err)
	}
	host, err := ca.IssueHost(pki.MustParseDN("/O=bench/OU=Services/CN=host\\/localhost"),
		[]string{"localhost", "127.0.0.1"}, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	user, err := ca.IssueUser(pki.MustParseDN("/O=bench/OU=People/CN=Bench User"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(Config{
		Name: "bench-tls",
		TLS:  &TLSConfig{Identity: host, ClientCAs: ca.Pool()},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	return srv, ca, user
}

func BenchmarkTLSOverheadPlain(b *testing.B) {
	srv := benchServer(b)
	c, err := Dial(srv.URL())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Call("system.list_methods")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("system.list_methods"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLSOverheadEncrypted(b *testing.B) {
	srv, ca, user := benchTLSServer(b)
	c, err := Dial(srv.URL(), WithRootCAs(ca.Pool()), WithIdentity(user))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Call("system.list_methods")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("system.list_methods"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReconnect makes every call on a fresh client, so each one pays a
// new connection (and, over TLS, a full handshake).
func benchReconnect(b *testing.B, url string, opts ...ClientOption) {
	b.Helper()
	opts = append(opts, WithMaxConns(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Dial(url, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Call("system.list_methods"); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkTLSOverheadReconnectPlain is the plaintext reconnect-per-call
// row: the cost of a fresh TCP connection per call without a handshake.
func BenchmarkTLSOverheadReconnectPlain(b *testing.B) {
	benchReconnect(b, benchServer(b).URL())
}

// BenchmarkTLSOverheadHandshake measures the reconnect-per-call mode that
// dominates the paper's informal "up to 50%" figure.
func BenchmarkTLSOverheadHandshake(b *testing.B) {
	srv, ca, user := benchTLSServer(b)
	benchReconnect(b, srv.URL(), WithRootCAs(ca.Pool()), WithIdentity(user))
}

// --- E3 / Globus comparison ---

func BenchmarkClarensEcho(b *testing.B) {
	srv := benchServer(b)
	c, err := Dial(srv.URL())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Call("system.echo", "x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("system.echo", "x"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBaseline(b *testing.B, costs baseline.Costs) {
	b.Helper()
	container := baseline.NewContainer(costs)
	container.Register("echo.echo", func(params []any) (any, error) {
		if len(params) == 0 {
			return nil, nil
		}
		return params[0], nil
	})
	var wire bytes.Buffer
	soaprpc.New().EncodeRequest(&wire, &rpc.Request{Method: "echo.echo", Params: []any{"x"}})
	doc := wire.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := container.Invoke(doc, ""); resp.Fault != nil {
			b.Fatal(resp.Fault)
		}
	}
}

func BenchmarkBaselineGT3Default(b *testing.B) { benchBaseline(b, baseline.DefaultCosts()) }
func BenchmarkBaselineGT3Light(b *testing.B)   { benchBaseline(b, baseline.LightCosts()) }
func BenchmarkBaselineGT3Floor(b *testing.B)   { benchBaseline(b, baseline.NoCosts()) }

// --- E4 / streaming ---

func BenchmarkFileStreaming(b *testing.B) {
	for _, sizeMB := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dMiB", sizeMB), func(b *testing.B) {
			root := b.TempDir()
			payload := bytes.Repeat([]byte("stream-payload-"), 1<<16/15+1)[:1<<16]
			f, err := os.Create(filepath.Join(root, "stream.bin"))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < sizeMB*16; i++ {
				f.Write(payload)
			}
			f.Close()
			srv, err := NewServer(Config{Name: "stream", FileRoot: root})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			srv.Files.SetACL("/", AccessRead, &ACL{AllowDNs: []string{EntryAny, EntryAnonymous}})
			if err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			client := &http.Client{}
			url := srv.URL() + "/files/stream.bin"
			b.SetBytes(int64(sizeMB) << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if n != int64(sizeMB)<<20 {
					b.Fatalf("read %d bytes", n)
				}
			}
		})
	}
}

// --- A1 / auth pipeline ablation ---

func BenchmarkDispatchAuth(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		srv, err := core.NewServer(core.Config{DisableAuth: disable})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		req := &rpc.Request{Method: "system.echo", Params: []any{"x"}}
		httpReq := httptest.NewRequest(http.MethodPost, "/rpc", nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := srv.Dispatch(httpReq, "bench", req); resp.Fault != nil {
				b.Fatal(resp.Fault)
			}
		}
	}
	b.Run("on", func(b *testing.B) { run(b, false) })
	b.Run("off", func(b *testing.B) { run(b, true) })
}

// --- batch RPC / system.multicall ---

// BenchmarkMulticall compares 50 sequential Calls against one 50-entry
// system.multicall batch on the same warmed keep-alive connection. Each
// benchmark op performs the full 50-call workload, so the reported ns/op
// figures are directly comparable: the batch pays one HTTP round trip and
// one auth pass where the sequential loop pays fifty of each.
func BenchmarkMulticall(b *testing.B) {
	const calls = 50
	srv := benchServer(b)
	c, err := Dial(srv.URL())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Call("system.ping") // warm the connection

	b.Run("sequential", func(b *testing.B) {
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := 0; j < calls; j++ {
				if _, err := c.Call("system.echo", "x"); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*calls)/time.Since(start).Seconds(), "calls/s")
	})
	b.Run("batched", func(b *testing.B) {
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			batch := c.Batch()
			for j := 0; j < calls; j++ {
				batch.Add("system.echo", "x")
			}
			results, err := batch.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != calls {
				b.Fatalf("%d results", len(results))
			}
		}
		b.ReportMetric(float64(b.N*calls)/time.Since(start).Seconds(), "calls/s")
	})

	// The slow-method workload: sub-call wall time dominates, so batching
	// alone cannot help — only parallel execution can. "sequential" and
	// "parallel" run the identical 50-entry slow.echo batch against servers
	// differing only in Config.BatchParallelism.
	slowBatch := func(b *testing.B, parallelism int) {
		b.Helper()
		srv, err := NewServer(Config{Name: "bench-slow", BatchParallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		if err := srv.Register(slowEchoService{delay: time.Millisecond}); err != nil {
			b.Fatal(err)
		}
		if err := srv.GrantMethod("slow", []string{EntryAny, EntryAnonymous}, nil); err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		c, err := Dial(srv.URL())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(c.Close)
		c.Call("system.ping") // warm the connection
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			batch := c.Batch()
			for j := 0; j < calls; j++ {
				batch.Add("slow.echo", "x")
			}
			results, err := batch.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != calls {
				b.Fatalf("%d results", len(results))
			}
		}
		b.ReportMetric(float64(b.N*calls)/time.Since(start).Seconds(), "calls/s")
	}
	b.Run("slow-sequential", func(b *testing.B) { slowBatch(b, 0) })
	b.Run("parallel", func(b *testing.B) { slowBatch(b, 16) })
}

// --- A2 / protocol comparison ---

func BenchmarkProtocols(b *testing.B) {
	// The Figure 4 payload: >30 method-name strings.
	methods := make([]any, 34)
	for i := range methods {
		methods[i] = fmt.Sprintf("module.method_%02d", i)
	}
	resp := &rpc.Response{Result: methods, ID: 1}
	codecs := []rpc.Codec{xmlrpc.New(), jsonrpc.New(), soaprpc.New()}
	for _, codec := range codecs {
		b.Run(codec.Name()+"/encode", func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := codec.EncodeResponse(&buf, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec.Name()+"/decode", func(b *testing.B) {
			var buf bytes.Buffer
			codec.EncodeResponse(&buf, resp)
			wire := buf.Bytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeResponse(bytes.NewReader(wire)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A3 / ACL depth ---

func BenchmarkACLDepth(b *testing.B) {
	user := pki.MustParseDN("/O=grid/OU=People/CN=User")
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			store, _ := db.Open("")
			defer store.Close()
			m := acl.NewManager(store, "bench", nil)
			path := "l1"
			for i := 2; i <= depth; i++ {
				path = fmt.Sprintf("%s.l%d", path, i)
			}
			m.Set("l1", &acl.ACL{AllowDNs: []string{user.String()}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Authorize(path, user) != acl.Allow {
					b.Fatal("unexpected deny")
				}
			}
		})
	}
}

// --- A4 / VO membership ---

func BenchmarkVOMembership(b *testing.B) {
	admin := pki.MustParseDN("/O=x/CN=Admin")
	user := pki.MustParseDN("/O=doesciencegrid.org/OU=People/CN=User")
	for _, depth := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			store, _ := db.Open("")
			defer store.Close()
			m, err := vo.NewManager(store, []string{admin.String()})
			if err != nil {
				b.Fatal(err)
			}
			name := "g"
			m.CreateGroup(name, admin)
			for i := 1; i < depth; i++ {
				name = fmt.Sprintf("%s.s%d", name, i)
				m.CreateGroup(name, admin)
			}
			// Membership granted at the top by DN prefix; resolved at the
			// deepest group (worst case walk).
			m.AddMember("g", admin, "/O=doesciencegrid.org/OU=People")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.IsMember(name, user) {
					b.Fatal("membership lost")
				}
			}
		})
	}
}

// --- A5 / discovery cache queries ---

func BenchmarkDiscovery(b *testing.B) {
	srv, err := NewServer(Config{Name: "qserver", LocalStation: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Fill the cache directly with the paper's ~90-site scale.
	for i := 0; i < 90; i++ {
		e := DiscoveryEntry{
			Server:  fmt.Sprintf("site%02d", i),
			URL:     fmt.Sprintf("http://site%02d:8080/rpc", i),
			Service: "file",
			Methods: []string{"file.read", "file.ls"},
			Expires: time.Now().Add(time.Hour),
		}
		srv.Core().Store().PutJSON("discovery", e.Key(), &e)
	}
	b.Run("find-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries, err := srv.Discovery.Find("*")
			if err != nil || len(entries) != 90 {
				b.Fatalf("%d entries, %v", len(entries), err)
			}
		}
	})
	b.Run("find-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries, err := srv.Discovery.Find("site42/*")
			if err != nil || len(entries) != 1 {
				b.Fatalf("%d entries, %v", len(entries), err)
			}
		}
	})
}

// --- A6 / sessions ---

func BenchmarkSessions(b *testing.B) {
	user := pki.MustParseDN("/O=grid/OU=People/CN=User")
	bench := func(b *testing.B, dir string) {
		store, err := db.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		m := session.NewManager(store, time.Hour)
		s, err := m.New(user)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("lookup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := m.Get(s.ID); !ok {
					b.Fatal("session lost")
				}
			}
		})
		b.Run("create", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.New(user); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("memory", func(b *testing.B) { bench(b, "") })
	b.Run("disk", func(b *testing.B) { bench(b, b.TempDir()) })
}

// --- job subsystem throughput ---

// BenchmarkJobThroughput measures the end-to-end job pipeline over real
// RPC: submit through the authenticated dispatch path, schedule through
// the priority queue and worker pool, execute in the shell sandbox, and
// observe completion via job.stats. The metric is completed jobs per
// second of wall time.
func BenchmarkJobThroughput(b *testing.B) {
	root := b.TempDir()
	umap := filepath.Join(root, ".clarens_user_map")
	os.WriteFile(umap, []byte("joe : /DC=org/DC=doegrids/OU=People/CN=Joe User ;;\n"), 0o644)
	srv, err := NewServer(Config{
		Name:           "jobs-bench",
		FileRoot:       root,
		ShellUserMap:   umap,
		EnableJobs:     true,
		JobWorkers:     8,
		JobMaxPerOwner: -1, // single-owner workload; fair share would idle workers
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	owner := pki.MustParseDN("/DC=org/DC=doegrids/OU=People/CN=Joe User")
	sess, err := srv.NewSessionFor(owner)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Dial(srv.URL())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.SetSession(sess.ID)

	completed := func() int {
		st, err := CallAs[map[string]any](c, "job.stats")
		if err != nil {
			b.Fatal(err)
		}
		done, _ := st["done"].(int)
		failed, _ := st["failed"].(int)
		return done + failed
	}
	// Warm the path and establish the completion baseline.
	if _, err := CallAs[string](c, "job.submit", "echo warm"); err != nil {
		b.Fatal(err)
	}
	for completed() < 1 {
		time.Sleep(time.Millisecond)
	}
	base := completed()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := CallAs[string](c, "job.submit", "echo payload"); err != nil {
			b.Fatal(err)
		}
	}
	for completed() < base+b.N {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/s")
}

// --- monalisa publish path (supports A5) ---

func BenchmarkMonalisaPublish(b *testing.B) {
	st, err := monalisa.NewStation("bench", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := &monalisa.Record{Farm: "f", Cluster: "c", Node: "n", Params: map[string]float64{"v": 1}}
	b.Run("ingest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.Ingest(rec)
		}
	})
	pub, err := monalisa.NewPublisher(st.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	b.Run("udp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := pub.Publish(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
