package core

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clarens/internal/acl"
	"clarens/internal/pki"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
)

var (
	adminDN = pki.MustParseDN("/O=caltech/OU=People/CN=Admin")
	userDN  = pki.MustParseDN("/O=grid/OU=People/CN=User")
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(Config{AdminDNs: []string{adminDN.String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// call posts an RPC over the in-process HTTP handler.
func call(t *testing.T, s *Server, codec rpc.Codec, headers map[string]string, method string, params ...any) *rpc.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.EncodeRequest(&buf, &rpc.Request{Method: method, Params: params, ID: 1}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/rpc", &buf)
	req.Header.Set("Content-Type", codec.ContentTypes()[0])
	if codec.Name() == "soap" {
		req.Header.Set("SOAPAction", `"urn:clarens#`+method+`"`)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
	}
	resp, err := codec.DecodeResponse(w.Body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// sessionFor creates a session and returns headers carrying it.
func sessionFor(t *testing.T, s *Server, dn pki.DN) map[string]string {
	t.Helper()
	sess, err := s.NewSessionFor(dn)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{SessionHeader: sess.ID}
}

func TestListMethodsAnonymous(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.list_methods")
	if resp.Fault != nil {
		t.Fatalf("fault: %v", resp.Fault)
	}
	names, ok := resp.Result.([]any)
	if !ok {
		t.Fatalf("result = %T", resp.Result)
	}
	// The core services alone register 26 methods; the full server (file,
	// shell, proxy, discovery) exceeds the paper's "more than 30 strings".
	if len(names) < 26 {
		t.Errorf("method count = %d", len(names))
	}
	found := false
	for _, n := range names {
		if n == "system.list_methods" {
			found = true
		}
	}
	if !found {
		t.Error("system.list_methods missing from listing")
	}
}

func TestAllProtocolsDispatch(t *testing.T) {
	s := newTestServer(t)
	for _, codec := range []rpc.Codec{xmlrpc.New(), jsonrpc.New(), soaprpc.New()} {
		t.Run(codec.Name(), func(t *testing.T) {
			resp := call(t, s, codec, nil, "system.echo", "round-trip")
			if resp.Fault != nil {
				t.Fatalf("fault: %v", resp.Fault)
			}
			if !rpc.Equal(resp.Result, "round-trip") {
				t.Errorf("result = %#v", resp.Result)
			}
		})
	}
}

func TestContentTypeSelectsCodec(t *testing.T) {
	s := newTestServer(t)
	// JSON body with JSON content type must be handled by jsonrpc.
	body := `{"method":"system.ping","params":[],"id":9}`
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), `"pong"`) {
		t.Errorf("json response: %s", w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("response content type = %q", ct)
	}
}

func TestMethodNotFound(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "no.such_method")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeMethodNotFound {
		t.Errorf("fault = %+v", resp.Fault)
	}
}

func TestParseErrorProducesFault(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader("<bogus"))
	req.Header.Set("Content-Type", "text/xml")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	resp, err := xmlrpc.New().DecodeResponse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeParse {
		t.Errorf("fault = %+v", resp.Fault)
	}
}

// spaces is an endless stream of ' ' bytes.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// A body over rpc.MaxBodyBytes is a parse fault even when it would
// decode: here a valid call padded with whitespace one byte past the
// limit.
func TestOversizedBodyIsParseFault(t *testing.T) {
	s := newTestServer(t)
	ping := `<methodCall><methodName>system.ping</methodName></methodCall>`
	body := io.MultiReader(strings.NewReader(ping), io.LimitReader(spaces{}, rpc.MaxBodyBytes+1-int64(len(ping))))
	req := httptest.NewRequest(http.MethodPost, "/rpc", body)
	req.Header.Set("Content-Type", "text/xml")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	resp, err := xmlrpc.New().DecodeResponse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeParse {
		t.Errorf("fault = %+v", resp.Fault)
	}
	if _, _, byMethod := s.Stats().Snapshot(); byMethod["(parse-error)"] != 1 {
		t.Errorf("byMethod = %v", byMethod)
	}
}

func TestGetOnRPCEndpointRejected(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/rpc", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /rpc = %d", w.Code)
	}
}

func TestRootBannerAndRootPost(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "clarens-go") {
		t.Errorf("banner: %s", w.Body.String())
	}
	// RPC POST to "/" works like PClarens' URL dispatch.
	var buf bytes.Buffer
	xmlrpc.New().EncodeRequest(&buf, &rpc.Request{Method: "system.ping"})
	req = httptest.NewRequest(http.MethodPost, "/", &buf)
	req.Header.Set("Content-Type", "text/xml")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "pong") {
		t.Errorf("POST /: %s", w.Body.String())
	}
}

func TestSessionAuthViaHeader(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.whoami")
	if !rpc.Equal(resp.Result, "") {
		t.Errorf("anonymous whoami = %#v", resp.Result)
	}
	hdr := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdr, "system.whoami")
	if !rpc.Equal(resp.Result, userDN.String()) {
		t.Errorf("session whoami = %#v", resp.Result)
	}
}

func TestSessionAuthViaCookie(t *testing.T) {
	s := newTestServer(t)
	sess, _ := s.NewSessionFor(userDN)
	var buf bytes.Buffer
	xmlrpc.New().EncodeRequest(&buf, &rpc.Request{Method: "system.whoami"})
	req := httptest.NewRequest(http.MethodPost, "/rpc", &buf)
	req.Header.Set("Content-Type", "text/xml")
	req.AddCookie(&http.Cookie{Name: SessionCookie, Value: sess.ID})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "CN=User") {
		t.Errorf("cookie auth: %s", w.Body.String())
	}
}

func TestLogoutInvalidatesSession(t *testing.T) {
	s := newTestServer(t)
	hdr := sessionFor(t, s, userDN)
	resp := call(t, s, xmlrpc.New(), hdr, "system.logout")
	if resp.Fault != nil || !rpc.Equal(resp.Result, true) {
		t.Fatalf("logout = %#v %v", resp.Result, resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), hdr, "system.whoami")
	if !rpc.Equal(resp.Result, "") {
		t.Errorf("whoami after logout = %#v", resp.Result)
	}
}

func TestACLDeniesUnauthorizedMethod(t *testing.T) {
	s := newTestServer(t)
	// vo.create_group is admin-gated by the default ACLs.
	resp := call(t, s, xmlrpc.New(), nil, "vo.create_group", "cms")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied {
		t.Errorf("anonymous create_group fault = %+v", resp.Fault)
	}
	hdrUser := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdrUser, "vo.create_group", "cms")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied {
		t.Errorf("user create_group fault = %+v", resp.Fault)
	}
	hdrAdmin := sessionFor(t, s, adminDN)
	resp = call(t, s, xmlrpc.New(), hdrAdmin, "vo.create_group", "cms")
	if resp.Fault != nil {
		t.Errorf("admin create_group fault = %v", resp.Fault)
	}
}

func TestPublicMethodBlockedByExplicitDeny(t *testing.T) {
	s := newTestServer(t)
	err := s.MethodACL().Set("system.ping", &acl.ACL{DenyDNs: []string{acl.EntryAnonymous}})
	if err != nil {
		t.Fatal(err)
	}
	resp := call(t, s, xmlrpc.New(), nil, "system.ping")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied {
		t.Errorf("explicit deny on public method = %+v", resp.Fault)
	}
	// Authenticated users remain allowed.
	hdr := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdr, "system.ping")
	if resp.Fault != nil {
		t.Errorf("authenticated ping fault = %v", resp.Fault)
	}
}

func TestVOServiceEndToEnd(t *testing.T) {
	s := newTestServer(t)
	admin := sessionFor(t, s, adminDN)
	for _, step := range []struct {
		method string
		params []any
	}{
		{"vo.create_group", []any{"cms"}},
		{"vo.create_group", []any{"cms.hcal"}},
		{"vo.add_member", []any{"cms", userDN.String()}},
		{"vo.add_admin", []any{"cms", userDN.String()}},
	} {
		resp := call(t, s, xmlrpc.New(), admin, step.method, step.params...)
		if resp.Fault != nil {
			t.Fatalf("%s: %v", step.method, resp.Fault)
		}
	}
	resp := call(t, s, xmlrpc.New(), nil, "vo.is_member", "cms.hcal", userDN.String())
	if !rpc.Equal(resp.Result, true) {
		t.Errorf("inherited membership = %#v (fault %v)", resp.Result, resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), admin, "vo.group_info", "cms")
	if resp.Fault != nil {
		t.Fatalf("group_info: %v", resp.Fault)
	}
	info := resp.Result.(map[string]any)
	if !rpc.Equal(info["members"], []any{userDN.String()}) {
		t.Errorf("members = %#v", info["members"])
	}
	// User session: my_groups reflects membership.
	hdr := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdr, "vo.my_groups")
	got, _ := resp.Result.([]any)
	if len(got) != 2 { // cms and cms.hcal
		t.Errorf("my_groups = %#v", resp.Result)
	}
}

func TestACLServiceEndToEnd(t *testing.T) {
	s := newTestServer(t)
	admin := sessionFor(t, s, adminDN)
	resp := call(t, s, xmlrpc.New(), admin, "acl.set",
		"data", "allow,deny",
		[]any{userDN.String()}, []any{}, []any{}, []any{})
	if resp.Fault != nil {
		t.Fatalf("acl.set: %v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), admin, "acl.get", "data")
	m := resp.Result.(map[string]any)
	if !rpc.Equal(m["allow_dns"], []any{userDN.String()}) {
		t.Errorf("acl.get = %#v", m)
	}
	resp = call(t, s, xmlrpc.New(), admin, "acl.check", "data.read", userDN.String())
	m = resp.Result.(map[string]any)
	if !rpc.Equal(m["decision"], "allow") || !rpc.Equal(m["level"], "data") {
		t.Errorf("acl.check = %#v", m)
	}
	// Non-admin probing someone else is denied...
	hdr := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdr, "acl.check", "data.read", adminDN.String())
	if resp.Fault == nil {
		t.Error("non-admin probing another DN must fault")
	}
	// ...but may check themselves.
	resp = call(t, s, xmlrpc.New(), hdr, "acl.check", "data.read")
	if resp.Fault != nil {
		t.Errorf("self check: %v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), admin, "acl.list")
	if resp.Fault != nil {
		t.Fatalf("acl.list: %v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), admin, "acl.delete", "data")
	if resp.Fault != nil {
		t.Fatalf("acl.delete: %v", resp.Fault)
	}
}

func TestSystemIntrospection(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.method_help", "system.ping")
	if resp.Fault != nil || resp.Result == "" {
		t.Errorf("method_help = %#v %v", resp.Result, resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), nil, "system.method_signature", "system.ping")
	if resp.Fault != nil {
		t.Errorf("method_signature fault = %v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), nil, "system.method_help", "missing.method")
	if resp.Fault == nil {
		t.Error("help for missing method must fault")
	}
	resp = call(t, s, xmlrpc.New(), nil, "system.version")
	if !rpc.Equal(resp.Result, Version) {
		t.Errorf("version = %#v", resp.Result)
	}
	resp = call(t, s, xmlrpc.New(), nil, "system.time")
	if resp.Fault != nil {
		t.Errorf("time fault = %v", resp.Fault)
	}
}

func TestStatsAdminOnly(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.stats")
	if resp.Fault == nil {
		t.Error("anonymous stats must fault")
	}
	admin := sessionFor(t, s, adminDN)
	call(t, s, xmlrpc.New(), nil, "system.ping")
	resp = call(t, s, xmlrpc.New(), admin, "system.stats")
	if resp.Fault != nil {
		t.Fatalf("admin stats: %v", resp.Fault)
	}
	m := resp.Result.(map[string]any)
	if m["requests"].(int) < 2 {
		t.Errorf("stats = %#v", m)
	}
}

func TestSystemAuthRequiresIdentity(t *testing.T) {
	s := newTestServer(t)
	resp := call(t, s, xmlrpc.New(), nil, "system.auth")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeNotAuthorized {
		t.Errorf("anonymous auth = %+v", resp.Fault)
	}
	// With an existing session, auth renews and returns the same token.
	hdr := sessionFor(t, s, userDN)
	resp = call(t, s, xmlrpc.New(), hdr, "system.auth")
	if resp.Fault != nil {
		t.Fatalf("auth with session: %v", resp.Fault)
	}
	if !rpc.Equal(resp.Result, hdr[SessionHeader]) {
		t.Errorf("auth returned %#v, want existing session %q", resp.Result, hdr[SessionHeader])
	}
}

func TestDisableAuthSkipsChecks(t *testing.T) {
	s, err := NewServer(Config{DisableAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// vo.groups is admin-gated normally; with auth disabled it executes.
	resp := call(t, s, xmlrpc.New(), nil, "vo.groups")
	if resp.Fault != nil {
		t.Errorf("DisableAuth dispatch fault: %v", resp.Fault)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := newTestServer(t)
	bad := stubService{name: "", methods: []Method{{Name: "x.y", Handler: func(*Context, Params) (any, error) { return nil, nil }}}}
	if err := s.Register(bad); err == nil {
		t.Error("empty service name must be rejected")
	}
	bad = stubService{name: "x", methods: nil}
	if err := s.Register(bad); err == nil {
		t.Error("no methods must be rejected")
	}
	bad = stubService{name: "x", methods: []Method{{Name: "other.y", Handler: func(*Context, Params) (any, error) { return nil, nil }}}}
	if err := s.Register(bad); err == nil {
		t.Error("method outside module must be rejected")
	}
	bad = stubService{name: "x", methods: []Method{{Name: "x.y"}}}
	if err := s.Register(bad); err == nil {
		t.Error("nil handler must be rejected")
	}
	typed := Func0(func(*Context) (bool, error) { return true, nil })
	bad = stubService{name: "x", methods: []Method{{Name: "x.y", Func: typed, Signature: []string{"boolean"}}}}
	if err := s.Register(bad); err == nil {
		t.Error("Func with a hand-written Signature must be rejected")
	}
	good := stubService{name: "x", methods: []Method{{Name: "x.y", Handler: func(*Context, Params) (any, error) { return nil, nil }}}}
	if err := s.Register(good); err != nil {
		t.Errorf("valid service rejected: %v", err)
	}
	if err := s.Register(good); err == nil {
		t.Error("duplicate registration must be rejected")
	}
}

type stubService struct {
	name    string
	methods []Method
}

func (s stubService) Name() string      { return s.name }
func (s stubService) Methods() []Method { return s.methods }

func TestHandlerErrorsBecomeFaults(t *testing.T) {
	s := newTestServer(t)
	svc := stubService{name: "boom", methods: []Method{
		{Name: "boom.fault", Public: true, Handler: func(*Context, Params) (any, error) {
			return nil, &rpc.Fault{Code: 123, Message: "custom"}
		}},
		{Name: "boom.err", Public: true, Handler: func(*Context, Params) (any, error) {
			return nil, strings.NewReader("").UnreadRune()
		}},
		{Name: "boom.badresult", Public: true, Handler: func(*Context, Params) (any, error) {
			return make(chan int), nil
		}},
	}}
	if err := s.Register(svc); err != nil {
		t.Fatal(err)
	}
	s.MethodACL().Set("boom", &acl.ACL{AllowDNs: []string{acl.EntryAnonymous, acl.EntryAny}})

	resp := call(t, s, xmlrpc.New(), nil, "boom.fault")
	if resp.Fault == nil || resp.Fault.Code != 123 {
		t.Errorf("custom fault = %+v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), nil, "boom.err")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeApplication {
		t.Errorf("generic error fault = %+v", resp.Fault)
	}
	resp = call(t, s, xmlrpc.New(), nil, "boom.badresult")
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeInternal {
		t.Errorf("unserializable fault = %+v", resp.Fault)
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"s", 7, true, []byte("b"), []any{"x", "y"}, 2.0}
	if v, err := p.String(0); err != nil || v != "s" {
		t.Errorf("String: %v %v", v, err)
	}
	if v, err := p.Int(1); err != nil || v != 7 {
		t.Errorf("Int: %v %v", v, err)
	}
	if v, err := p.Int(5); err != nil || v != 2 {
		t.Errorf("Int from float: %v %v", v, err)
	}
	if v, err := p.Bool(2); err != nil || !v {
		t.Errorf("Bool: %v %v", v, err)
	}
	if v, err := p.Bytes(3); err != nil || string(v) != "b" {
		t.Errorf("Bytes: %v %v", v, err)
	}
	if v, err := p.Bytes(0); err != nil || string(v) != "s" {
		t.Errorf("Bytes from string: %v %v", v, err)
	}
	if v, err := p.StringSlice(4); err != nil || len(v) != 2 {
		t.Errorf("StringSlice: %v %v", v, err)
	}
	if _, err := p.String(1); err == nil {
		t.Error("String of int must fail")
	}
	if _, err := p.Int(0); err == nil {
		t.Error("Int of string must fail")
	}
	if _, err := p.Bool(0); err == nil {
		t.Error("Bool of string must fail")
	}
	if _, err := p.Bytes(1); err == nil {
		t.Error("Bytes of int must fail")
	}
	if _, err := p.StringSlice(0); err == nil {
		t.Error("StringSlice of string must fail")
	}
	if _, err := p.StringSlice(6); err == nil {
		t.Error("missing param must fail")
	}
	if v, err := p.OptString(99, "def"); err != nil || v != "def" {
		t.Errorf("OptString: %v %v", v, err)
	}
	if v, err := p.OptInt(99, 5); err != nil || v != 5 {
		t.Errorf("OptInt: %v %v", v, err)
	}
	if v, err := p.OptString(0, "def"); err != nil || v != "s" {
		t.Errorf("OptString present: %v %v", v, err)
	}
	if v, err := p.OptInt(1, 5); err != nil || v != 7 {
		t.Errorf("OptInt present: %v %v", v, err)
	}
}

func TestStatsRecording(t *testing.T) {
	s := newTestServer(t)
	call(t, s, xmlrpc.New(), nil, "system.ping")
	call(t, s, xmlrpc.New(), nil, "no.method")
	// A body no codec can decode never reaches dispatch but is counted.
	bad := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader("<bogus"))
	bad.Header.Set("Content-Type", "text/xml")
	s.Handler().ServeHTTP(httptest.NewRecorder(), bad)
	requests, faults, byMethod := s.Stats().Snapshot()
	if requests != 3 || faults != 2 {
		t.Errorf("requests=%d faults=%d", requests, faults)
	}
	if byMethod["system.ping"] != 1 || byMethod["(parse-error)"] != 1 {
		t.Errorf("byMethod = %v", byMethod)
	}
	var metrics strings.Builder
	s.Telemetry().WritePrometheus(&metrics)
	if want := `clarens_rpc_faults_total{method="(parse-error)"} 1`; !strings.Contains(metrics.String(), want) {
		t.Errorf("/metrics lacks %s", want)
	}
}
