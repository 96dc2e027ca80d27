package soaprpc

import (
	"bytes"
	"strings"
	"testing"

	"clarens/internal/rpc"
	"clarens/internal/rpc/codectest"
)

func TestConformance(t *testing.T) {
	codectest.Run(t, New())
}

func TestEnvelopeShape(t *testing.T) {
	var buf bytes.Buffer
	err := New().EncodeRequest(&buf, &rpc.Request{Method: "system.echo", Params: []any{"hi"}})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{
		"SOAP-ENV:Envelope", "SOAP-ENV:Body",
		"<cl:system.echo>", "xsi:type=\"xsd:string\"",
		"http://schemas.xmlsoap.org/soap/envelope/",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("envelope missing %q:\n%s", frag, s)
		}
	}
}

func TestFaultShape(t *testing.T) {
	var buf bytes.Buffer
	err := New().EncodeResponse(&buf, &rpc.Response{
		Fault: &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "denied"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{"SOAP-ENV:Fault", "<faultcode>", "<faultstring>denied</faultstring>"} {
		if !strings.Contains(s, frag) {
			t.Errorf("fault missing %q:\n%s", frag, s)
		}
	}
	resp, err := New().DecodeResponse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fault == nil || resp.Fault.Code != rpc.CodeAccessDenied || resp.Fault.Message != "denied" {
		t.Errorf("fault = %+v", resp.Fault)
	}
}

func TestAcceptsForeignEnvelope(t *testing.T) {
	// A request from a different SOAP stack: namespace prefixes differ,
	// a Header element is present, types use xsd:int.
	wire := `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
                  xmlns:xsd="http://www.w3.org/2001/XMLSchema"
                  xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <soapenv:Header><ignored/></soapenv:Header>
  <soapenv:Body>
    <ns1:file.read xmlns:ns1="urn:clarens">
      <name xsi:type="xsd:string">/store/run42.dat</name>
      <offset xsi:type="xsd:int">0</offset>
      <length xsi:type="xsd:int">4096</length>
    </ns1:file.read>
  </soapenv:Body>
</soapenv:Envelope>`
	req, err := New().DecodeRequest(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "file.read" {
		t.Errorf("method = %q", req.Method)
	}
	want := []any{"/store/run42.dat", 0, 4096}
	for i := range want {
		if !rpc.Equal(req.Params[i], want[i]) {
			t.Errorf("param %d = %#v", i, req.Params[i])
		}
	}
}

func TestUntypedElements(t *testing.T) {
	// Untyped leaf -> string; untyped with children -> struct.
	wire := `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body>
<m><a>plain</a><b><x>1</x></b></m>
</Body></Envelope>`
	req, err := New().DecodeRequest(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !rpc.Equal(req.Params[0], "plain") {
		t.Errorf("param 0 = %#v", req.Params[0])
	}
	m, ok := req.Params[1].(map[string]any)
	if !ok || !rpc.Equal(m["x"], "1") {
		t.Errorf("param 1 = %#v", req.Params[1])
	}
}

func TestNilEncoding(t *testing.T) {
	var buf bytes.Buffer
	if err := New().EncodeResponse(&buf, &rpc.Response{Result: nil}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `xsi:nil="true"`) {
		t.Errorf("nil wire: %s", buf.String())
	}
	resp, err := New().DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result != nil {
		t.Errorf("nil round trip = %#v", resp.Result)
	}
}

func TestRejectsNonEnvelope(t *testing.T) {
	if _, err := New().DecodeRequest(strings.NewReader("<methodCall/>")); err == nil {
		t.Error("non-SOAP document must be rejected")
	}
}

func TestRejectsEmptyBody(t *testing.T) {
	wire := `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body></Body></Envelope>`
	if _, err := New().DecodeRequest(strings.NewReader(wire)); err == nil {
		t.Error("empty Body must be rejected")
	}
}

func TestRejectsUnknownXSIType(t *testing.T) {
	wire := `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"
 xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><Body>
<m><a xsi:type="xsd:hexBinary">ff</a></m></Body></Envelope>`
	if _, err := New().DecodeRequest(strings.NewReader(wire)); err == nil {
		t.Error("unsupported xsi:type must be rejected")
	}
}

func TestSanitizeElementName(t *testing.T) {
	cases := map[string]string{
		"simple":   "simple",
		"with sp":  "with_sp",
		"9lead":    "_9lead",
		"":         "_",
		"a.b-c_d":  "a.b-c_d",
		"<attack>": "_attack_",
	}
	for in, want := range cases {
		if got := sanitizeElementName(in); got != want {
			t.Errorf("sanitizeElementName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMissingReturnRejected(t *testing.T) {
	wire := `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><Response><other/></Response></Body></Envelope>`
	if _, err := New().DecodeResponse(strings.NewReader(wire)); err == nil {
		t.Error("response without return element must be rejected")
	}
}

func TestDepthCap(t *testing.T) {
	doc := func(depth int) string {
		k := depth - 3 // Envelope, Body and the call element
		return `<Envelope><Body><m>` + strings.Repeat("<a>", k) + strings.Repeat("</a>", k) + `</m></Body></Envelope>`
	}
	if _, err := New().DecodeRequest(strings.NewReader(doc(rpc.MaxDepth))); err != nil {
		t.Fatalf("depth %d: %v", rpc.MaxDepth, err)
	}
	_, err := New().DecodeRequest(strings.NewReader(doc(rpc.MaxDepth + 1)))
	if f, ok := err.(*rpc.Fault); !ok || f.Code != rpc.CodeParse {
		t.Fatalf("depth %d: error = %v, want a CodeParse fault", rpc.MaxDepth+1, err)
	}
}
