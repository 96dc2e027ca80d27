// Package soaprpc implements a SOAP 1.1 RPC/encoded binding, the second
// protocol named by the paper (§1: "frequently, but not exclusively,
// XML-RPC or SOAP"). The encoding follows the classic Section-5 style used
// by Apache AXIS (the engine inside JClarens): the method call is an
// element named after the method in the urn:clarens namespace, parameters
// carry xsi:type attributes, arrays use SOAP-ENC:Array, and errors are
// SOAP Faults.
package soaprpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"clarens/internal/rpc"
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

type element struct {
	name     string
	attrs    map[string]string
	text     string
	children []*element
}

// parseElement builds a lightweight DOM below the given start element,
// which is depth elements down from the document root.
func parseElement(d *xml.Decoder, se xml.StartElement, depth int) (*element, error) {
	if depth > rpc.MaxDepth {
		return nil, fmt.Errorf("soaprpc: elements nested deeper than %d", rpc.MaxDepth)
	}
	el := &element{name: se.Name.Local, attrs: map[string]string{}}
	for _, a := range se.Attr {
		el.attrs[a.Name.Local] = a.Value
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			el.text += string(t)
		case xml.StartElement:
			child, err := parseElement(d, t, depth+1)
			if err != nil {
				return nil, err
			}
			el.children = append(el.children, child)
		case xml.EndElement:
			return el, nil
		}
	}
}

func (el *element) child(name string) *element {
	for _, c := range el.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

func decodeTyped(el *element) (any, error) {
	if el.attrs["nil"] == "true" || el.attrs["null"] == "1" {
		return nil, nil
	}
	xsiType := el.attrs["type"]
	// Strip the namespace prefix: xsd:string -> string.
	if i := strings.IndexByte(xsiType, ':'); i >= 0 {
		xsiType = xsiType[i+1:]
	}
	text := strings.TrimSpace(el.text)
	switch xsiType {
	case "string":
		// Whitespace is significant in strings; use the raw text.
		return el.text, nil
	case "boolean":
		switch text {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return nil, fmt.Errorf("soaprpc: bad boolean %q", text)
	case "int", "long", "short", "byte", "integer":
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad %s %q", xsiType, text)
		}
		return int(n), nil
	case "double", "float", "decimal":
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad %s %q", xsiType, text)
		}
		return f, nil
	case "base64Binary", "base64":
		data, err := base64.StdEncoding.DecodeString(text)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad base64: %w", err)
		}
		return data, nil
	case "dateTime":
		t, err := time.Parse(time.RFC3339Nano, text)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad dateTime %q", text)
		}
		return t.UTC(), nil
	case "Array":
		arr := make([]any, 0, len(el.children))
		for _, c := range el.children {
			v, err := decodeTyped(c)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		return arr, nil
	case "Struct":
		m := make(map[string]any, len(el.children))
		for _, c := range el.children {
			v, err := decodeTyped(c)
			if err != nil {
				return nil, err
			}
			m[c.name] = v
		}
		return m, nil
	case "":
		// Untyped: infer a struct if there are children, string otherwise.
		if len(el.children) > 0 {
			m := make(map[string]any, len(el.children))
			for _, c := range el.children {
				v, err := decodeTyped(c)
				if err != nil {
					return nil, err
				}
				m[c.name] = v
			}
			return m, nil
		}
		return el.text, nil
	default:
		return nil, fmt.Errorf("soaprpc: unsupported xsi:type %q", xsiType)
	}
}

// parseEnvelope returns the first element inside Body.
func parseEnvelope(r io.Reader) (*element, error) {
	d := xml.NewDecoder(r)
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != "Envelope" {
				return nil, fmt.Errorf("soaprpc: expected Envelope, got %s", se.Name.Local)
			}
			break
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != "Body" {
				// Skip Header or other children of Envelope.
				if err := d.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return parseElement(d, se, 3) // Envelope, Body, se
		}
		if _, ok := tok.(xml.EndElement); ok {
			return nil, fmt.Errorf("soaprpc: empty Body")
		}
	}
}

// DecodeRequest implements rpc.Codec.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	call, err := parseEnvelope(r)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	req := &rpc.Request{Method: call.name}
	for i, c := range call.children {
		v, err := decodeTyped(c)
		if err != nil {
			return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("param %d: %v", i, err)}
		}
		req.Params = append(req.Params, v)
	}
	return req, nil
}

// DecodeResponse implements rpc.Codec.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	body, err := parseEnvelope(r)
	if err != nil {
		return nil, fmt.Errorf("soaprpc: %w", err)
	}
	if body.name == "Fault" {
		f := &rpc.Fault{Code: rpc.CodeApplication}
		if fs := body.child("faultstring"); fs != nil {
			f.Message = strings.TrimSpace(fs.text)
		}
		if det := body.child("detail"); det != nil {
			if code := det.child("code"); code != nil {
				if n, err := strconv.Atoi(strings.TrimSpace(code.text)); err == nil {
					f.Code = n
				}
			}
		}
		return &rpc.Response{Fault: f}, nil
	}
	ret := body.child("return")
	if ret == nil {
		return nil, fmt.Errorf("soaprpc: response has no return element")
	}
	v, err := decodeTyped(ret)
	if err != nil {
		return nil, err
	}
	return &rpc.Response{Result: v}, nil
}

var _ rpc.Codec = (*Codec)(nil)
