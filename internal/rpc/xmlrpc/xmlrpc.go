// Package xmlrpc implements the XML-RPC protocol (http://www.xmlrpc.com),
// the primary wire format of the Clarens framework and the one used in the
// paper's Figure 4 performance measurement (the response there is "a list
// of more than 30 strings as an array response in XML-RPC").
//
// Supported value elements: <i4>/<int>, <i8> (widely implemented
// extension for 64-bit integers), <boolean>, <double>, <string>,
// <dateTime.iso8601>, <base64>, <array>, <struct>, <nil/> (extension).
// A <value> with bare character data is a string, per the spec.
//
// # Accepted language
//
// Both decoders make one pass with internal/rpc/xmlscan and accept its
// language under the spec's grammar for the closed tag set methodCall
// methodName params param value i4 int i8 boolean string double
// dateTime.iso8601 base64 nil struct member name array data
// methodResponse fault, <params> optional in a call. Attributes and
// namespace prefixes are ignored (<ex:i8> is <i8>), and bare text in
// <value> is a string. Anything else is a CodeParse fault.
package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"clarens/internal/rpc"
	"clarens/internal/rpc/xmlscan"
)

// Codec is the XML-RPC implementation of rpc.Codec. The zero value is
// ready to use.
type Codec struct{}

// New returns the XML-RPC codec.
func New() *Codec { return &Codec{} }

// Name implements rpc.Codec.
func (*Codec) Name() string { return "xmlrpc" }

// contentTypes is shared across calls: ContentTypes sits on the
// per-response hot path and must not allocate.
var contentTypes = []string{"text/xml", "application/xml"}

// ContentTypes implements rpc.Codec. XML-RPC is served as text/xml.
// Callers must not modify the returned slice.
func (*Codec) ContentTypes() []string { return contentTypes }

// iso8601 is the XML-RPC dateTime layout (no timezone designator in the
// original spec; we emit UTC and accept common variants).
const iso8601 = "20060102T15:04:05"

var iso8601Variants = []string{
	iso8601,
	"2006-01-02T15:04:05",
	"20060102T15:04:05Z07:00",
	"2006-01-02T15:04:05Z07:00",
}

// --- encoding ---

// escapeString writes s XML-escaped without converting it to []byte (the
// conversion xml.EscapeText forces is one allocation per string, which on
// the Figure 4 workload — >30 strings per response — dominated the encode
// profile). Unescaped runs are copied in chunks. Strings containing
// invalid UTF-8 take the xml.EscapeText slow path, which substitutes
// U+FFFD so the emitted document stays well-formed.
func escapeString(b *bytes.Buffer, s string) {
	if !utf8.ValidString(s) {
		xml.EscapeText(b, []byte(s))
		return
	}
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\'':
			esc = "&#39;"
		case '"':
			esc = "&#34;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
}

func encodeValue(b *bytes.Buffer, v any) error {
	b.WriteString("<value>")
	if err := encodeValueInner(b, v); err != nil {
		return err
	}
	b.WriteString("</value>")
	return nil
}

func encodeValueInner(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("<nil/>")
	case bool:
		if x {
			b.WriteString("<boolean>1</boolean>")
		} else {
			b.WriteString("<boolean>0</boolean>")
		}
	case int:
		if x >= math.MinInt32 && x <= math.MaxInt32 {
			b.WriteString("<int>")
			b.WriteString(strconv.Itoa(x))
			b.WriteString("</int>")
		} else {
			b.WriteString("<i8>")
			b.WriteString(strconv.Itoa(x))
			b.WriteString("</i8>")
		}
	case float64:
		b.WriteString("<double>")
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteString("</double>")
	case string:
		b.WriteString("<string>")
		escapeString(b, x)
		b.WriteString("</string>")
	case []byte:
		b.WriteString("<base64>")
		b.WriteString(base64.StdEncoding.EncodeToString(x))
		b.WriteString("</base64>")
	case time.Time:
		b.WriteString("<dateTime.iso8601>")
		b.WriteString(x.UTC().Format(iso8601))
		b.WriteString("</dateTime.iso8601>")
	case []any:
		b.WriteString("<array><data>")
		for _, e := range x {
			if err := encodeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteString("</data></array>")
	case map[string]any:
		b.WriteString("<struct>")
		for _, k := range sortedKeys(x) {
			b.WriteString("<member><name>")
			escapeString(b, k)
			b.WriteString("</name>")
			if err := encodeValue(b, x[k]); err != nil {
				return err
			}
			b.WriteString("</member>")
		}
		b.WriteString("</struct>")
	default:
		n, err := rpc.Normalize(v)
		if err != nil {
			return fmt.Errorf("xmlrpc: %w", err)
		}
		return encodeValueInner(b, n)
	}
	return nil
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

// targetBuffer returns w itself when it already is a *bytes.Buffer (the
// server encodes responses into pooled buffers), avoiding a second
// staging buffer and the copy out of it. flush is non-nil when a staging
// buffer had to be created for a plain writer.
func targetBuffer(w io.Writer) (b *bytes.Buffer, flush func() error) {
	if buf, ok := w.(*bytes.Buffer); ok {
		return buf, nil
	}
	b = new(bytes.Buffer)
	return b, func() error {
		_, err := w.Write(b.Bytes())
		return err
	}
}

// EncodeRequest implements rpc.Codec.
func (*Codec) EncodeRequest(w io.Writer, req *rpc.Request) error {
	b, flush := targetBuffer(w)
	b.WriteString(xml.Header)
	b.WriteString("<methodCall><methodName>")
	escapeString(b, req.Method)
	b.WriteString("</methodName><params>")
	for _, p := range req.Params {
		b.WriteString("<param>")
		if err := encodeValue(b, p); err != nil {
			return err
		}
		b.WriteString("</param>")
	}
	b.WriteString("</params></methodCall>")
	if flush != nil {
		return flush()
	}
	return nil
}

// EncodeResponse implements rpc.Codec.
func (*Codec) EncodeResponse(w io.Writer, resp *rpc.Response) error {
	b, flush := targetBuffer(w)
	b.WriteString(xml.Header)
	if resp.Fault != nil {
		b.WriteString("<methodResponse><fault>")
		fv := map[string]any{
			"faultCode":   resp.Fault.Code,
			"faultString": resp.Fault.Message,
		}
		if err := encodeValue(b, fv); err != nil {
			return err
		}
		b.WriteString("</fault></methodResponse>")
	} else {
		b.WriteString("<methodResponse><params><param>")
		if err := encodeValue(b, resp.Result); err != nil {
			return err
		}
		b.WriteString("</param></params></methodResponse>")
	}
	if flush != nil {
		return flush()
	}
	return nil
}

// --- decoding ---

func request(p *xmlscan.Scanner) *rpc.Request {
	call := p.Open("methodCall")
	name := p.Open("methodName")
	req := &rpc.Request{Method: string(bytes.TrimSpace(p.Leaf(name)))}
	if !p.AtEnd() {
		params := p.Open("params")
		for !p.AtEnd() {
			param := p.Open("param")
			req.Params = append(req.Params, value(p))
			p.Close(param)
		}
		p.Close(params)
	}
	p.Close(call)
	return req
}

func response(p *xmlscan.Scanner) *rpc.Response {
	top := p.Open("methodResponse")
	raw, local := p.StartTag()
	resp := &rpc.Response{}
	switch string(local) {
	case "params":
		param := p.Open("param")
		resp.Result = value(p)
		p.Close(param)
	case "fault":
		m, ok := value(p).(map[string]any)
		if !ok {
			p.Fail("fault value is not a struct")
		}
		code, _ := m["faultCode"].(int)
		msg, _ := m["faultString"].(string)
		resp.Fault = &rpc.Fault{Code: code, Message: msg}
	default:
		p.Fail("unexpected <%s> in methodResponse", local)
	}
	p.Close(raw)
	p.Close(top)
	return resp
}

// value decodes one <value> element: bare text is a string; otherwise
// one typed child with only whitespace and comments around it.
func value(p *xmlscan.Scanner) any {
	v := p.Open("value")
	text := p.Text()
	if p.AtEnd() {
		s := string(text)
		p.Close(v)
		return s
	}
	if len(bytes.TrimLeft(text, " \t\n")) != 0 {
		p.Fail("text before a typed value")
	}
	x := typed(p)
	p.Close(v)
	return x
}

func typed(p *xmlscan.Scanner) any {
	raw, local := p.StartTag()
	switch string(local) {
	case "nil":
		p.Close(raw)
		return nil
	case "string":
		return string(p.Leaf(raw))
	case "int", "i4":
		return integer(p, raw, 32)
	case "i8":
		return integer(p, raw, 64)
	case "boolean":
		switch string(bytes.TrimSpace(p.Leaf(raw))) {
		case "1", "true":
			return true
		case "0", "false":
			return false
		}
		p.Fail("bad boolean")
	case "double":
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(p.Leaf(raw))), 64)
		p.Check(err)
		return f
	case "base64":
		s := bytes.TrimSpace(p.Leaf(raw))
		data := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(data, s)
		p.Check(err)
		return data[:n]
	case "dateTime.iso8601":
		s := string(bytes.TrimSpace(p.Leaf(raw)))
		for _, layout := range iso8601Variants {
			if t, err := time.Parse(layout, s); err == nil {
				return t.UTC()
			}
		}
		p.Fail("bad dateTime %q", s)
	case "array":
		data := p.Open("data")
		arr := []any{}
		for !p.AtEnd() {
			arr = append(arr, value(p))
		}
		p.Close(data)
		p.Close(raw)
		return arr
	case "struct":
		m := map[string]any{}
		for !p.AtEnd() {
			member := p.Open("member")
			name := p.Open("name")
			key := string(p.Leaf(name))
			m[key] = value(p)
			p.Close(member)
		}
		p.Close(raw)
		return m
	default:
		p.Fail("unknown value type <%s>", local)
	}
	return nil
}

func integer(p *xmlscan.Scanner, raw []byte, bits int) int {
	n, err := strconv.ParseInt(string(bytes.TrimSpace(p.Leaf(raw))), 10, bits)
	p.Check(err)
	return int(n)
}

// DecodeRequest implements rpc.Codec. Anything outside the language in
// the package comment is a CodeParse fault.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	req, err := xmlscan.Parse(r, request)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: "xmlrpc: " + err.Error()}
	}
	return req, nil
}

// DecodeResponse implements rpc.Codec. It accepts the same language as
// DecodeRequest; a malformed reply is a plain error, not a fault, so a
// client does not mistake it for the server's answer.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	resp, err := xmlscan.Parse(r, response)
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: %w", err)
	}
	return resp, nil
}

var _ rpc.Codec = (*Codec)(nil)
