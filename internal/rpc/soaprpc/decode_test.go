package soaprpc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

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

const (
	xsi = ` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema"`
	enc = ` xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"`
)

// call wraps params in a default-namespace envelope calling method m.
func call(params string) string {
	return `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"` + xsi + enc + `><Body><m>` + params + `</m></Body></Envelope>`
}

// refused marks a language row the decoder must refuse with CodeParse.
type refusedRow struct{}

var refused refusedRow

// language is the decoder's contract in rows. The envelopes other SOAP
// stacks send must decode to want, the first parameter of method m
// (file.read for the Axis-style row). The refused rows are documents the
// encoding/xml walker in reference_test.go accepted, read or unread,
// that now are CodeParse faults.
var language = []struct {
	name, doc string
	want      any
}{
	{"soapenv-prefix-and-header", `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` + xsi + `>
  <soapenv:Header><auth soapenv:mustUnderstand="0">token<x/></auth></soapenv:Header>
  <soapenv:Body>
    <ns1:file.read soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/" xmlns:ns1="urn:clarens">
      <name xsi:type="xsd:string">/store/run42.dat</name>
      <offset xsi:type="xsd:int">0</offset>
    </ns1:file.read>
  </soapenv:Body>
</soapenv:Envelope>`, "/store/run42.dat"},
	{"SOAP-ENV-prefix-and-encodingStyle", `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"` + xsi +
		` SOAP-ENV:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"><SOAP-ENV:Body><cl:m xmlns:cl="urn:clarens">` +
		`<param0 xsi:type="xsd:long">-7</param0></cl:m></SOAP-ENV:Body></SOAP-ENV:Envelope>`, -7},
	{"default-namespace", `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><m xmlns="urn:clarens"><a>plain</a></m></Body></Envelope>`, "plain"},
	{"empty-header", `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Header/><soap:Body><m><a>x</a></m></soap:Body></soap:Envelope>`, "x"},
	{"xsi-nil", call(`<a xsi:nil="true"/>`), nil},
	{"xsi-nil-with-content", call(`<a xsi:type="xsd:int" xsi:nil="true">junk<b/></a>`), nil},
	{"soap-1999-null", call(`<a xsi:null="1" xsi:type="xsd:string">x</a>`), nil},
	{"cdata-and-comments-in-string", call(`<a xsi:type="xsd:string">x<!-- c --><![CDATA[<y>&amp;]]>&lt;z</a>`), "x<y>&amp;<z"},
	{"whitespace-kept-in-string", call("<a xsi:type=\"xsd:string\"> a\r\nb </a>"), " a\nb "},
	{"nested-array-and-struct", call(`<a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[2]">` +
		`<item xsi:type="cl:Struct"><n xsi:type="xsd:int">1</n><l xsi:type="SOAP-ENC:Array"><item>s</item></l></item>` +
		`<item><k>v</k></item></a>`), []any{map[string]any{"n": 1, "l": []any{"s"}}, map[string]any{"k": "v"}}},
	{"attribute-references", call(`<a xsi:type="xsd&#58;boolean">1</a>`), true},
	{"self-closing-array", call(`<a xsi:type="SOAP-ENC:Array"/>`), []any{}},
	{"elements-after-body", `<Envelope><Body><m><a>x</a></m><extra>y</extra></Body><trailer/></Envelope>` + "\n<!-- end -->\n", "x"},

	{"doctype", `<!DOCTYPE Envelope>` + call(`<a>x</a>`), refused},
	{"processing-instruction", `<?xml version="1.0"?><?xml-stylesheet href="s.xsl"?>` + call(`<a>x</a>`), refused},
	{"processing-instruction-in-text", call(`<a>x<?php y?></a>`), refused},
	{"content-after-document", call(`<a>x</a>`) + `garbage`, refused},
	{"unread-after-call", `<Envelope><Body><m><a>x</a></m><unclosed></Body></Envelope>`, refused},
	{"text-between-elements", `<Envelope>x<Body><m><a>x</a></m></Body></Envelope>`, refused},
	{"text-beside-children", call(`<a>x<b>1</b></a>`), refused},
	{"element-in-scalar", call(`<a xsi:type="xsd:int">1<b/></a>`), refused},
	{"non-ascii-name", call(`<ä>x</ä>`), refused},
}

func TestLanguage(t *testing.T) {
	for _, c := range language {
		t.Run(c.name, func(t *testing.T) {
			ref, referr := referenceDecodeRequest(strings.NewReader(c.doc))
			req, err := New().DecodeRequest(strings.NewReader(c.doc))
			if c.want == refused {
				var f *rpc.Fault
				if !errors.As(err, &f) || f.Code != rpc.CodeParse {
					t.Errorf("DecodeRequest error = %v, want a CodeParse fault", err)
				}
				if referr != nil {
					t.Errorf("the reference walker refuses it too (%v): not a narrowing", referr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Params) == 0 || !rpc.Equal(req.Params[0], c.want) {
				t.Errorf("params = %#v, want [%#v ...]", req.Params, c.want)
			}
			if referr != nil || ref.Method != req.Method || !sameValue(ref.Params, req.Params) {
				t.Errorf("reference walker: %#v, %v", ref, referr)
			}
		})
	}
}

// TestInvalidParamsAfterParse holds the fault split: a value that does
// not parse as its xsi:type is CodeInvalidParams naming the parameter,
// unless the document is also malformed, later on, which is CodeParse.
func TestInvalidParamsAfterParse(t *testing.T) {
	bad := call(`<a>ok</a><b xsi:type="xsd:int">x</b><c xsi:type="xsd:int">y</c>`)
	_, err := New().DecodeRequest(strings.NewReader(bad))
	var f *rpc.Fault
	if !errors.As(err, &f) || f.Code != rpc.CodeInvalidParams || !strings.HasPrefix(f.Message, `param 1: soaprpc: bad int "x"`) {
		t.Errorf("bad value: %v", err)
	}
	_, err = New().DecodeRequest(strings.NewReader(strings.Replace(bad, "</c>", "</d>", 1)))
	if !errors.As(err, &f) || f.Code != rpc.CodeParse {
		t.Errorf("bad value in a malformed document: %v", err)
	}
}

// TestDecodeIsLinear decodes a string parameter split by 32k comments
// (about 256 KiB) and bounds the bytes allocated by a small multiple of
// the body: concatenating the pieces one by one allocates quadratically,
// about 512 MiB for this body.
func TestDecodeIsLinear(t *testing.T) {
	const pieces = 32 << 10
	doc := call(`<s xsi:type="xsd:string">` + strings.Repeat("a<!---->", pieces) + `</s>`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req, err := New().DecodeRequest(strings.NewReader(doc))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Params) != 1 || req.Params[0] != strings.Repeat("a", pieces) {
		t.Fatalf("decoded %d params", len(req.Params))
	}
	// Reading the body into a growing buffer costs about 4x its size,
	// twice that under the race detector.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(doc)) {
		t.Errorf("decoding a %d-byte body allocated %d bytes", len(doc), alloc)
	}
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

// seeds is the fuzz corpus both targets start from: the codectest value
// model and an rpc-large-shaped table as requests and responses, a
// fault, and the language table.
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
	for _, l := range language {
		out = append(out, []byte(l.doc))
	}
	return out
}

// FuzzDecodeRequest holds the decoder to a one-sided oracle: whatever it
// accepts, the encoding/xml walker in reference_test.go accepts too,
// with equal values; whatever it refuses is a CodeParse or
// CodeInvalidParams fault.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if f, ok := err.(*rpc.Fault); !ok || f.Code != rpc.CodeParse && f.Code != rpc.CodeInvalidParams {
				t.Fatalf("error %v is not a CodeParse or CodeInvalidParams fault", err)
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
