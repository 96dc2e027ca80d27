// Package soaprpc implements a SOAP 1.1 RPC/encoded binding, the second
// protocol named by the paper (§1: "frequently, but not exclusively,
// XML-RPC or SOAP"). The encoding follows the classic Section-5 style used
// by Apache AXIS (the engine inside JClarens): the method call is an
// element named after the method in the urn:clarens namespace, parameters
// carry xsi:type attributes, arrays use SOAP-ENC:Array, and errors are
// SOAP Faults.
//
// # Accepted language
//
// Both decoders are a grammar over internal/rpc/xmlscan, XML-RPC's
// lexer. Names are read by local part; Envelope children other than the
// first Body, and Body children after the first, are skipped whole; an
// element holds child elements or text, never both.
package soaprpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlscan"
)

// Codec is the SOAP 1.1 implementation of rpc.Codec.
type Codec struct{}

// New returns the SOAP codec.
func New() *Codec { return &Codec{} }

// Name implements rpc.Codec.
func (*Codec) Name() string { return "soap" }

// ContentTypes implements rpc.Codec. SOAP 1.1 also travels as text/xml;
// the server distinguishes it from XML-RPC by the SOAPAction header or by
// sniffing the Envelope element, so the codec's dedicated type comes first.
func (*Codec) ContentTypes() []string { return contentTypes }

// contentTypes is shared across calls: ContentTypes sits on the
// per-response hot path and must not allocate.
var contentTypes = []string{"application/soap+xml"}

const (
	nsEnvelope = "http://schemas.xmlsoap.org/soap/envelope/"
	nsEncoding = "http://schemas.xmlsoap.org/soap/encoding/"
	nsXSI      = "http://www.w3.org/2001/XMLSchema-instance"
	nsXSD      = "http://www.w3.org/2001/XMLSchema"
	nsClarens  = "urn:clarens"
)

// methodElement converts a dotted Clarens method name into a valid XML
// element name (dots are legal in XML names, so this is the identity; kept
// as a seam for protocols that must mangle).
func methodElement(method string) string { return method }

// --- encoding ---

func envelopeHeader(b *bytes.Buffer) {
	b.WriteString(xml.Header)
	b.WriteString(`<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + nsEnvelope + `"` +
		` xmlns:SOAP-ENC="` + nsEncoding + `"` +
		` xmlns:xsi="` + nsXSI + `"` +
		` xmlns:xsd="` + nsXSD + `"` +
		` xmlns:cl="` + nsClarens + `">` +
		`<SOAP-ENV:Body>`)
}

func envelopeFooter(b *bytes.Buffer) {
	b.WriteString(`</SOAP-ENV:Body></SOAP-ENV:Envelope>`)
}

func encodeTyped(b *bytes.Buffer, name string, v any) error {
	switch x := v.(type) {
	case nil:
		fmt.Fprintf(b, `<%s xsi:nil="true"/>`, name)
	case bool:
		fmt.Fprintf(b, `<%s xsi:type="xsd:boolean">%t</%s>`, name, x, name)
	case int:
		fmt.Fprintf(b, `<%s xsi:type="xsd:long">%d</%s>`, name, x, name)
	case float64:
		fmt.Fprintf(b, `<%s xsi:type="xsd:double">%s</%s>`, name, strconv.FormatFloat(x, 'g', -1, 64), name)
	case string:
		fmt.Fprintf(b, `<%s xsi:type="xsd:string">`, name)
		xml.EscapeText(b, []byte(x))
		fmt.Fprintf(b, `</%s>`, name)
	case []byte:
		fmt.Fprintf(b, `<%s xsi:type="xsd:base64Binary">%s</%s>`, name, base64.StdEncoding.EncodeToString(x), name)
	case time.Time:
		fmt.Fprintf(b, `<%s xsi:type="xsd:dateTime">%s</%s>`, name, x.UTC().Format(time.RFC3339Nano), name)
	case []any:
		fmt.Fprintf(b, `<%s xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:anyType[%d]">`, name, len(x))
		for _, e := range x {
			if err := encodeTyped(b, "item", e); err != nil {
				return err
			}
		}
		fmt.Fprintf(b, `</%s>`, name)
	case map[string]any:
		fmt.Fprintf(b, `<%s xsi:type="cl:Struct">`, name)
		for _, k := range sortedKeys(x) {
			if err := encodeTyped(b, sanitizeElementName(k), x[k]); err != nil {
				return err
			}
		}
		fmt.Fprintf(b, `</%s>`, name)
	default:
		n, err := rpc.Normalize(v)
		if err != nil {
			return fmt.Errorf("soaprpc: %w", err)
		}
		return encodeTyped(b, name, n)
	}
	return nil
}

// sanitizeElementName makes an arbitrary struct key usable as an XML
// element name; keys in Clarens structs are identifier-like, so this only
// guards against pathological input.
func sanitizeElementName(k string) string {
	if k == "" {
		return "_"
	}
	var sb strings.Builder
	for _, r := range k {
		ok := r == '_' || r == '.' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out[0] >= '0' && out[0] <= '9' || out[0] == '.' || out[0] == '-' {
		out = "_" + out
	}
	return out
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// EncodeRequest implements rpc.Codec.
func (*Codec) EncodeRequest(w io.Writer, req *rpc.Request) error {
	var b bytes.Buffer
	envelopeHeader(&b)
	fmt.Fprintf(&b, `<cl:%s>`, methodElement(req.Method))
	for i, p := range req.Params {
		if err := encodeTyped(&b, fmt.Sprintf("param%d", i), p); err != nil {
			return err
		}
	}
	fmt.Fprintf(&b, `</cl:%s>`, methodElement(req.Method))
	envelopeFooter(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// EncodeResponse implements rpc.Codec.
func (*Codec) EncodeResponse(w io.Writer, resp *rpc.Response) error {
	var b bytes.Buffer
	envelopeHeader(&b)
	if resp.Fault != nil {
		b.WriteString(`<SOAP-ENV:Fault><faultcode>SOAP-ENV:Server</faultcode><faultstring>`)
		xml.EscapeText(&b, []byte(resp.Fault.Message))
		b.WriteString(`</faultstring><detail><cl:code>`)
		b.WriteString(strconv.Itoa(resp.Fault.Code))
		b.WriteString(`</cl:code></detail></SOAP-ENV:Fault>`)
	} else {
		b.WriteString(`<cl:Response>`)
		if err := encodeTyped(&b, "return", resp.Result); err != nil {
			return err
		}
		b.WriteString(`</cl:Response>`)
	}
	envelopeFooter(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// --- decoding ---

// decoder is the SOAP grammar over the lexer. A value that does not
// parse as its xsi:type is kept in bad and the pass goes on, so a
// malformed document is still a parse error.
type decoder struct {
	*xmlscan.Scanner
	bad   error
	param int // the request parameter bad is in
}

// children reads the element opened as raw through its end tag, passing
// the first child with each local name in want (at most two) to read and
// skipping the rest. It reports whether there was a child named want[0].
func (d *decoder) children(raw []byte, want []string, read func(i int, child []byte)) bool {
	var seen [2]bool
	for !d.AtEnd() {
		child, local := d.StartTag()
		if i := slices.Index(want, string(local)); i >= 0 && !seen[i] {
			seen[i] = true
			read(i, child)
		} else {
			d.Skip(child)
		}
	}
	d.Close(raw)
	return seen[0]
}

// decode reads one Envelope from r. Only its first Body counts, and in
// that only the first child, which content decodes.
func decode[T any](r io.Reader, content func(d *decoder, raw, local []byte) T) (T, *decoder, error) {
	d := new(decoder)
	v, err := xmlscan.Parse(r, func(s *xmlscan.Scanner) (v T) {
		d.Scanner = s
		if !d.children(d.Open("Envelope"), []string{"Body"}, func(_ int, body []byte) {
			if d.AtEnd() {
				d.Fail("empty Body")
			}
			raw, local := d.StartTag()
			v = content(d, raw, local)
			d.children(body, nil, nil)
		}) {
			d.Fail("no Body")
		}
		return v
	})
	return v, d, err
}

// request reads the call element: its local name is the method, its
// children are the parameters in order.
func (d *decoder) request(raw, local []byte) *rpc.Request {
	req := &rpc.Request{Method: string(local)}
	for !d.AtEnd() {
		param, _ := d.StartTag()
		if d.bad == nil {
			d.param = len(req.Params)
		}
		req.Params = append(req.Params, d.value(param))
	}
	d.Close(raw)
	return req
}

// response reads a Fault, made of its first faultstring and the first
// code in its first detail, or the first return child of any other
// element.
func (d *decoder) response(raw, local []byte) *rpc.Response {
	if string(local) == "Fault" {
		f := &rpc.Fault{Code: rpc.CodeApplication}
		d.children(raw, []string{"faultstring", "detail"}, func(i int, child []byte) {
			if i == 0 {
				f.Message = string(bytes.TrimSpace(d.Leaf(child)))
				return
			}
			d.children(child, []string{"code"}, func(_ int, code []byte) {
				if n, err := strconv.Atoi(string(bytes.TrimSpace(d.Leaf(code)))); err == nil {
					f.Code = n
				}
			})
		})
		return &rpc.Response{Fault: f}
	}
	resp := &rpc.Response{}
	if !d.children(raw, []string{"return"}, func(_ int, ret []byte) { resp.Result = d.value(ret) }) {
		d.Fail("response has no return element")
	}
	return resp
}

// value decodes the element opened as raw by the local part of its
// xsi:type: xsi:nil="true" or null="1" is nil whatever it holds; an
// Array holds items in order, a Struct members by local name; an
// untyped element is a struct when it has children and a string
// otherwise; every other type is a leaf.
func (d *decoder) value(raw []byte) any {
	if string(d.Attr("nil")) == "true" || string(d.Attr("null")) == "1" {
		d.Skip(raw)
		return nil
	}
	typ := d.Attr("type") // the local part counts: xsd:string is string
	switch kind := string(typ[bytes.IndexByte(typ, ':')+1:]); kind {
	case "Array":
		arr := []any{}
		for !d.AtEnd() {
			item, _ := d.StartTag()
			arr = append(arr, d.value(item))
		}
		d.Close(raw)
		return arr
	case "Struct": // members, below
	default:
		text := d.Text()
		if kind != "" || d.AtEnd() {
			d.Close(raw)
			v, err := scalar(kind, text)
			if err != nil && d.bad == nil {
				d.bad = err
			}
			return v
		}
		if len(bytes.TrimLeft(text, " \t\n")) != 0 {
			d.Fail("text beside child elements")
		}
	}
	m := map[string]any{}
	for !d.AtEnd() {
		member, name := d.StartTag()
		m[string(name)] = d.value(member)
	}
	d.Close(raw)
	return m
}

// scalar parses the text of a leaf whose xsi:type is kind.
func scalar(kind string, text []byte) (any, error) {
	if kind == "" || kind == "string" {
		// Whitespace is significant in strings; use the raw text.
		return string(text), nil
	}
	s := string(bytes.TrimSpace(text))
	var v any
	err := strconv.ErrSyntax
	switch kind {
	case "boolean":
		if s == "true" || s == "1" || s == "false" || s == "0" {
			v, err = s == "true" || s == "1", nil
		}
	case "int", "long", "short", "byte", "integer":
		var n int64
		n, err = strconv.ParseInt(s, 10, 64)
		v = int(n)
	case "double", "float", "decimal":
		v, err = strconv.ParseFloat(s, 64)
	case "base64Binary", "base64":
		v, err = base64.StdEncoding.DecodeString(s)
	case "dateTime":
		var t time.Time
		t, err = time.Parse(time.RFC3339Nano, s)
		v = t.UTC()
	default:
		return nil, fmt.Errorf("soaprpc: unsupported xsi:type %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("soaprpc: bad %s %q", kind, s)
	}
	return v, nil
}

// DecodeRequest implements rpc.Codec. A document outside the language in
// the package comment is a CodeParse fault; a parameter that does not
// parse as its xsi:type is a CodeInvalidParams fault.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	req, d, err := decode(r, (*decoder).request)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: "soaprpc: " + err.Error()}
	}
	if d.bad != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("param %d: %v", d.param, d.bad)}
	}
	return req, nil
}

// DecodeResponse implements rpc.Codec. A malformed reply is a plain
// error, not a fault, so a client does not mistake it for the server's
// answer.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	resp, d, err := decode(r, (*decoder).response)
	if err != nil {
		return nil, fmt.Errorf("soaprpc: %w", err)
	}
	return resp, d.bad
}

var _ rpc.Codec = (*Codec)(nil)
