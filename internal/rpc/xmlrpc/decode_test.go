package xmlrpc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clarens/internal/rpc"
	"clarens/internal/rpc/codectest"
)

// sameValue is rpc.Equal with NaN equal to NaN, at any depth.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || x != x && y != y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	}
	return rpc.Equal(a, b)
}

// rows is a table shaped like the rpc-large benchmark payload: 64
// structs {run, lfn, size, ok, tags}.
func rows() []any {
	out := make([]any, 64)
	for i := range out {
		out[i] = map[string]any{
			"run":  100000 + i,
			"lfn":  fmt.Sprintf("/store/data/run%06d/events.root", i),
			"size": float64(i)*1024 + 0.5,
			"ok":   i%2 == 0,
			"tags": []any{"muon", "jet", "electron"},
		}
	}
	return out
}

func pythonCapture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "python", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

const call = `<methodCall><methodName>m</methodName><params><param>%s</param></params></methodCall>`

// accepted are documents inside the declared language that our own
// encoder never produces, with the first parameter each decodes to.
var accepted = []struct {
	name, doc string
	want      any
}{
	{"declaration-single-quotes", `<?xml version='1.0' encoding='utf-8' standalone='yes'?>` + fmt.Sprintf(call, `<value>a</value>`), "a"},
	{"declaration-encoding-case", `<?xml version="1.0" encoding="Utf-8" ?>` + "\n" + fmt.Sprintf(call, `<value>a</value>`), "a"},
	{"namespace-prefix", `<methodCall xmlns:ex="http://ws.apache.org/xmlrpc/namespaces/extensions"><methodName>m</methodName><params><param><value><ex:i8>8589934592</ex:i8></value></param></params></methodCall>`, 8589934592},
	{"attributes", fmt.Sprintf(call, `<value a="1" b = 'x&amp;y]]>'><string c="&#x41;">s</string></value>`), "s"},
	{"cdata-and-comments", fmt.Sprintf(call, `<value><string>a<!-- c --><![CDATA[<b>&amp;]]>c</string></value>`), "a<b>&amp;c"},
	{"line-ends", fmt.Sprintf(call, "<value><string>a\r\nb\rc<![CDATA[\r\nd\r]]>\n</string></value>"), "a\nb\nc\nd\n\n"},
	{"references", fmt.Sprintf(call, `<value>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xd;&#x10FFFF;</value>`), "<>&'\"AB\r\U0010FFFF"},
	{"self-closing", fmt.Sprintf(call, `<value><array><data><value/><value><string/></value></data></array></value>`), []any{"", ""}},
	{"space-around-typed", fmt.Sprintf(call, "<value>\n\t<!-- x --><int> 7 </int>\n</value>"), 7},
	{"trailing-misc", fmt.Sprintf(call, `<value>a</value>`) + "\n<!-- end -->\n", "a"},
}

// rejected are documents outside the declared language. encoding/xml
// refuses the first two, which a looser parser lets through: attribute
// values skipped unread, and a declaration matched by substring
// ("encoding=" inside another name). testdata/fuzz holds them as well.
var rejected = map[string]string{
	"attribute-control-char":    "<methodCall a=\"\x01\"><methodName>m</methodName></methodCall>",
	"declaration-substring":     `<?xml Aencoding="0"?><methodCall><methodName>m</methodName></methodCall>`,
	"declaration-version":       `<?xml version="1.1"?><methodCall><methodName>m</methodName></methodCall>`,
	"declaration-encoding":      `<?xml version="1.0" encoding="latin1"?><methodCall><methodName>m</methodName></methodCall>`,
	"declaration-not-first":     ` <?xml version="1.0"?><methodCall><methodName>m</methodName></methodCall>`,
	"doctype":                   `<!DOCTYPE methodCall><methodCall><methodName>m</methodName></methodCall>`,
	"processing-instruction":    `<methodCall><?php x?><methodName>m</methodName></methodCall>`,
	"pi-in-text":                fmt.Sprintf(call, `<value>a<?x?></value>`),
	"cdata-end-in-text":         fmt.Sprintf(call, `<value>a]]>b</value>`),
	"double-dash-in-comment":    `<methodCall><!-- a--b --><methodName>m</methodName></methodCall>`,
	"two-colons":                `<a:b:methodCall><methodName>m</methodName></a:b:methodCall>`,
	"leading-colon":             `<:methodCall><methodName>m</methodName></:methodCall>`,
	"trailing-colon":            `<methodCall:><methodName>m</methodName></methodCall:>`,
	"attribute-trailing-colon":  fmt.Sprintf(call, `<value a:="1">a</value>`),
	"text-between-elements":     `<methodCall>x<methodName>m</methodName></methodCall>`,
	"text-before-typed":         fmt.Sprintf(call, `<value>x<int>1</int></value>`),
	"content-after-document":    `<methodCall><methodName>m</methodName></methodCall>x`,
	"unknown-tag":               fmt.Sprintf(call, `<value><float>1</float></value>`),
	"mismatched-prefix":         `<ex:methodCall><methodName>m</methodName></methodCall>`,
	"invalid-utf8":              fmt.Sprintf(call, "<value>\xff</value>"),
	"noncharacter":              fmt.Sprintf(call, "<value>\uFFFE</value>"),
	"control-char":              fmt.Sprintf(call, "<value>a\x0bb</value>"),
	"control-char-in-cdata":     fmt.Sprintf(call, "<value><![CDATA[\x00]]></value>"),
	"nul-reference":             fmt.Sprintf(call, `<value>&#0;</value>`),
	"surrogate-reference":       fmt.Sprintf(call, `<value>&#xD800;</value>`),
	"unknown-entity":            fmt.Sprintf(call, `<value>&nbsp;</value>`),
	"unquoted-attribute":        fmt.Sprintf(call, `<value a=1>a</value>`),
	"less-than-in-attribute":    fmt.Sprintf(call, `<value a="<">a</value>`),
	"unterminated-cdata":        fmt.Sprintf(call, `<value><![CDATA[a</value>`),
	"children-of-self-closed":   `<methodCall/>`,
	"second-response-param":     `<methodResponse><params><param><value>a</value></param><param><value>b</value></param></params></methodResponse>`,
	"missing-method-call-close": `<methodCall><methodName>m</methodName>`,
}

func TestDecodeAccepted(t *testing.T) {
	for _, c := range accepted {
		t.Run(c.name, func(t *testing.T) {
			req, err := New().DecodeRequest(strings.NewReader(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Params) != 1 || !rpc.Equal(req.Params[0], c.want) {
				t.Errorf("params = %#v, want [%#v]", req.Params, c.want)
			}
			ref, err := referenceDecodeRequest(strings.NewReader(c.doc))
			if err != nil || !sameValue(ref.Params, req.Params) {
				t.Errorf("reference walker: %#v, %v", ref, err)
			}
		})
	}
}

func TestDecodeRejected(t *testing.T) {
	for name, doc := range rejected {
		t.Run(name, func(t *testing.T) {
			_, err := New().DecodeRequest(strings.NewReader(doc))
			var f *rpc.Fault
			if !errors.As(err, &f) || f.Code != rpc.CodeParse {
				t.Fatalf("DecodeRequest error = %v, want a CodeParse fault", err)
			}
			if _, err := New().DecodeResponse(strings.NewReader(doc)); err == nil {
				t.Error("DecodeResponse accepted it")
			}
		})
	}
}

// TestPythonCaptures decodes the bytes Python's xmlrpc.client sends
// (testdata/python, written by gen.py there): raw CR line ends in a
// string, base64 wrapped across lines, a dateTime and nested structs.
func TestPythonCaptures(t *testing.T) {
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	req, err := New().DecodeRequest(bytes.NewReader(pythonCapture(t, "request.xml")))
	if err != nil {
		t.Fatal(err)
	}
	wantParams := []any{
		"line one\nline two\nline three",
		allBytes,
		time.Date(2005, 6, 15, 12, 30, 45, 0, time.UTC),
		map[string]any{"run": 42, "dataset": map[string]any{
			"lfn": "/store/a&b<c>.root", "events": []any{1, 2.5, true},
		}},
		nil,
	}
	if req.Method != "analysis.submit" || !rpc.Equal(req.Params, wantParams) {
		t.Errorf("request = %q %#v", req.Method, req.Params)
	}

	resp, err := New().DecodeResponse(bytes.NewReader(pythonCapture(t, "response.xml")))
	if err != nil {
		t.Fatal(err)
	}
	wantResult := []any{map[string]any{
		"run": 100001, "lfn": "/store/data/x.root", "size": 1024.5, "ok": false,
		"tags": []any{"muon", "2005", "hé"},
	}}
	if resp.Fault != nil || !rpc.Equal(resp.Result, wantResult) {
		t.Errorf("response = %#v, fault %v", resp.Result, resp.Fault)
	}

	resp, err = New().DecodeResponse(bytes.NewReader(pythonCapture(t, "fault.xml")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault == nil || *resp.Fault != (rpc.Fault{Code: 4, Message: "Too many parameters."}) {
		t.Errorf("fault = %+v", resp.Fault)
	}
}

// nested returns a call whose deepest element is depth elements down:
// methodCall, params, param and value are four, each array adds array,
// data and value, and the innermost value holds what makes up the rest.
func nested(depth int) string {
	k := (depth - 4) / 3
	inner := []string{"", "<string>x</string>", "<array><data></data></array>"}[(depth-4)%3]
	return `<methodCall><methodName>m</methodName><params><param><value>` +
		strings.Repeat(`<array><data><value>`, k) + inner + strings.Repeat(`</value></data></array>`, k) +
		`</value></param></params></methodCall>`
}

func TestDepthCap(t *testing.T) {
	if _, err := New().DecodeRequest(strings.NewReader(nested(rpc.MaxDepth))); err != nil {
		t.Fatalf("depth %d: %v", rpc.MaxDepth, err)
	}
	_, err := New().DecodeRequest(strings.NewReader(nested(rpc.MaxDepth + 1)))
	var f *rpc.Fault
	if !errors.As(err, &f) || f.Code != rpc.CodeParse {
		t.Fatalf("depth %d: error = %v, want a CodeParse fault", rpc.MaxDepth+1, err)
	}
}

// seeds is the fuzz corpus both targets start from: the codectest value
// model and an rpc-large-shaped table as requests, responses and a
// fault, the Python captures, and the tables above.
func seeds(t testing.TB) [][]byte {
	c := New()
	var out [][]byte
	add := func(v any) {
		var req, resp bytes.Buffer
		if err := c.EncodeRequest(&req, &rpc.Request{Method: "system.echo", Params: []any{v}}); err != nil {
			t.Fatal(err)
		}
		if err := c.EncodeResponse(&resp, &rpc.Response{Result: v}); err != nil {
			t.Fatal(err)
		}
		out = append(out, req.Bytes(), resp.Bytes())
	}
	for _, v := range codectest.Values() {
		add(v)
	}
	add(rows())
	var fault bytes.Buffer
	if err := c.EncodeResponse(&fault, &rpc.Response{Fault: &rpc.Fault{Code: 4, Message: "<no>"}}); err != nil {
		t.Fatal(err)
	}
	out = append(out, fault.Bytes())
	for _, name := range []string{"request.xml", "response.xml", "fault.xml"} {
		out = append(out, pythonCapture(t, name))
	}
	for _, a := range accepted {
		out = append(out, []byte(a.doc))
	}
	for _, doc := range rejected {
		out = append(out, []byte(doc))
	}
	return out
}

// FuzzDecodeRequest holds the parser to a one-sided oracle: whatever it
// accepts, the encoding/xml walker in reference_test.go accepts too,
// with equal values; whatever it refuses is a CodeParse fault.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if f, ok := err.(*rpc.Fault); !ok || f.Code != rpc.CodeParse {
				t.Fatalf("error %v is not a CodeParse fault", err)
			}
			return
		}
		want, err := referenceDecodeRequest(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted what the reference walker refuses (%v)", err)
		}
		if got.Method != want.Method || !sameValue(got.Params, want.Params) {
			t.Fatalf("got %q %#v, reference %q %#v", got.Method, got.Params, want.Method, want.Params)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest's oracle for responses.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := referenceDecodeResponse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted what the reference walker refuses (%v)", err)
		}
		if !sameValue(got.Result, want.Result) || (got.Fault == nil) != (want.Fault == nil) ||
			got.Fault != nil && *got.Fault != *want.Fault {
			t.Fatalf("got %#v %v, reference %#v %v", got.Result, got.Fault, want.Result, want.Fault)
		}
	})
}
