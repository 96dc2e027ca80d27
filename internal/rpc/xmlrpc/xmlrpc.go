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
// Both decoders read the whole body into a pooled buffer and make one
// pass over it. This is the contract; the bytes Clarens clients send
// (this package's encoder, Python's xmlrpc.client, ROOT, the browser)
// lie inside it. Accepted:
//
//   - an optional XML declaration at the very first byte: version="1.0",
//     then optionally encoding="utf-8" (any case), then optionally
//     standalone="yes" or "no", in either quote;
//   - whitespace and comments between elements and around the document
//     element;
//   - the spec's element grammar over the closed tag set methodCall
//     methodName params param value i4 int i8 boolean string double
//     dateTime.iso8601 base64 nil struct member name array data
//     methodResponse fault: <params> is optional in a call, a response
//     holds one param or one fault, a member is a name then a value;
//   - attributes on any element, checked and ignored, and a namespace
//     prefix, ignored (<ex:i8> is <i8>); an end tag repeats its start
//     tag's name exactly; <x/> is <x></x>;
//   - in character data: the five named entities, decimal and &#x hex
//     character references, CDATA sections and comments; "\r\n" and a
//     lone "\r" read as "\n";
//   - bare text in <value> as a string; only whitespace and comments
//     around a typed child.
//
// Anything else is a parse error, a CodeParse fault from DecodeRequest:
// a DOCTYPE or any other "<!" that is not a comment or CDATA, any other
// processing instruction, an unknown or mismatched tag, text between
// elements, content after the document element, invalid UTF-8 or a
// character outside XML's Char production in text or attribute values,
// "]]>" in text, "--" inside a comment, a name with a second colon or a
// colon at either end, and elements nested deeper than rpc.MaxDepth.
package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"clarens/internal/rpc"
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

// parser is one pass over a whole document held in memory. Errors are
// sticky: after the first, every step is a no-op and every list reads as
// ended, so the grammar methods below read as the grammar.
type parser struct {
	in    bytes.Buffer // the document; recycled with the parser
	buf   []byte       // in.Bytes()
	pos   int
	depth int
	empty bool   // the last start tag was self-closing: its end is implied
	text  []byte // scratch for character data that had to be rewritten
	err   error
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// parserRetainLimit is the largest document buffer returned to the pool;
// one oversized body must not pin its buffer forever.
const parserRetainLimit = 1 << 20

// parse reads r whole into a pooled buffer and runs doc over it: an
// optional declaration, the document element, then only whitespace and
// comments to the end.
func parse[T any](r io.Reader, doc func(*parser) T) (T, error) {
	p := parserPool.Get().(*parser)
	p.in.Reset()
	_, p.err = p.in.ReadFrom(r)
	p.buf, p.pos, p.depth, p.empty = p.in.Bytes(), 0, 0, false
	if p.peek("<?xml") {
		p.decl()
	}
	v := doc(p)
	p.misc()
	if p.err == nil && p.pos != len(p.buf) {
		p.fail("content after the document element")
	}
	err := p.err
	p.buf, p.err = nil, nil
	if p.in.Cap() <= parserRetainLimit {
		parserPool.Put(p)
	}
	return v, err
}

// decl reads the one XML declaration accepted: version 1.0, then
// optionally UTF-8 (any case) and a standalone flag, in that order.
func (p *parser) decl() {
	p.eat("<?xml")
	ok := p.declAttr("version=", false, "1.0")
	p.declAttr("encoding=", true, "utf-8")
	p.declAttr("standalone=", false, "yes", "no")
	if p.space(); !ok || !p.eat("?>") {
		p.fail("unsupported XML declaration")
	}
}

// declAttr reads whitespace, then name and a value from vals in either
// quote (in any ASCII case when fold is set), and reports whether it
// did; when it did not, p.pos is left where it was.
func (p *parser) declAttr(name string, fold bool, vals ...string) bool {
	start := p.pos
	if p.space(); p.pos > start && p.eat(name) && (p.eat(`"`) || p.eat(`'`)) {
		v, _, found := bytes.Cut(p.buf[p.pos:], p.buf[p.pos-1:p.pos])
		for _, want := range vals {
			if found && (string(v) == want || fold && bytes.EqualFold(v, []byte(want))) {
				p.pos += len(v) + 1
				return true
			}
		}
	}
	p.pos = start
	return false
}

// fail records the first error, at the current offset.
func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("xmlrpc: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
	}
}

func (p *parser) check(err error) {
	if err != nil {
		p.fail("%v", err)
	}
}

// peek reports whether the input continues with s; eat also consumes it.
func (p *parser) peek(s string) bool {
	rest := p.buf[p.pos:]
	if p.err != nil || len(rest) < len(s) {
		return false
	}
	for i := range len(s) {
		if rest[i] != s[i] {
			return false
		}
	}
	return true
}

func (p *parser) eat(s string) bool {
	ok := p.peek(s)
	if ok {
		p.pos += len(s)
	}
	return ok
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *parser) space() {
	b, i := p.buf, p.pos
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	p.pos = i
}

// misc skips whitespace and comments between elements.
func (p *parser) misc() {
	for p.space(); p.peek("<!--"); p.space() {
		p.comment()
	}
}

// comment skips the comment at p.pos; "--" may only close it.
func (p *parser) comment() {
	body := p.buf[p.pos+len("<!--"):]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || end+2 == len(body) || body[end+2] != '>' {
		p.fail(`unterminated comment or "--" inside a comment`)
		return
	}
	p.pos += len("<!--") + end + len("-->")
}

// name scans an element or attribute name: ASCII letters, digits and
// "_.-", starting with a letter or '_', with at most one ':' parting a
// namespace prefix from a non-empty local part, which it returns.
func (p *parser) name() (raw, local []byte) {
	b, start, i, colon := p.buf, p.pos, p.pos, -1
	for ; i < len(b) && nameByte[b[i]]; i++ {
		if b[i] == ':' {
			if colon >= 0 {
				break
			}
			colon = i
		}
	}
	p.pos = i
	raw, local = b[start:i], b[colon+1:i]
	if colon < 0 {
		local = raw
	}
	if len(raw) == 0 || !isNameStart(raw[0]) || len(local) == 0 {
		p.fail("bad name")
		return nil, nil
	}
	return raw, local
}

func isNameStart(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

// nameByte marks the bytes a name may hold.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = isNameStart(byte(c)) || '0' <= c && c <= '9' || c == '.' || c == '-' || c == ':'
	}
	return t
}()

// startTag reads the next start tag, checking and skipping its
// attributes, and returns its raw name and local part.
func (p *parser) startTag() (raw, local []byte) {
	if p.empty {
		p.fail("element closed before its content")
	}
	p.misc()
	if p.peek("</") || !p.eat("<") {
		p.fail("expected a start tag")
		return nil, nil
	}
	raw, local = p.name()
	for p.err == nil {
		p.space()
		if p.eat(">") {
			break
		}
		if p.eat("/>") {
			p.empty = true
			break
		}
		p.name()
		p.space()
		if !p.eat("=") {
			p.fail("attribute without a value")
		}
		p.space()
		if p.eat(`"`) || p.eat(`'`) {
			p.chars(p.buf[p.pos-1])
		} else {
			p.fail("unquoted attribute value")
		}
	}
	if p.depth++; p.depth > rpc.MaxDepth {
		p.fail("elements nested deeper than %d", rpc.MaxDepth)
	}
	return raw, local
}

// open reads the start tag of the element the grammar requires next.
func (p *parser) open(want string) []byte {
	raw, local := p.startTag()
	if string(local) != want {
		p.fail("expected <%s>, got <%s>", want, local)
	}
	return raw
}

// close consumes the end tag of the element opened as raw.
func (p *parser) close(raw []byte) {
	p.depth--
	if p.empty {
		p.empty = false
		return
	}
	p.misc()
	if p.eat("</") && bytes.HasPrefix(p.buf[p.pos:], raw) {
		p.pos += len(raw)
		p.space()
		if p.eat(">") {
			return
		}
	}
	p.fail("expected </%s>", raw)
}

// atEnd reports whether the current element's end tag comes next, after
// whitespace and comments. After an error every list is at its end.
func (p *parser) atEnd() bool {
	if p.err == nil && !p.empty {
		p.misc()
	}
	return p.err != nil || p.empty || p.peek("</")
}

// special marks the bytes chars must stop at: C0 controls other than tab
// and newline, "\r", markup and quotes, and every non-ASCII byte.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	for _, c := range "\r<&]\"'" {
		t[c] = true
	}
	return t
}()

// chars reads character data: with quote 0, text up to the next tag,
// including CDATA sections and comments; otherwise an attribute value
// through its closing quote (checked, not kept). References are replaced
// and line ends normalised. The result aliases the document when nothing
// was rewritten and p.text otherwise; either way it is valid until the
// next call.
func (p *parser) chars(quote byte) []byte {
	if p.err != nil || p.empty {
		return nil
	}
	b, i := p.buf, p.pos
	start, run, out, rewritten := i, i, p.text[:0], false
	for {
		for i < len(b) && !special[b[i]] {
			i++
		}
		p.pos = i
		if i == len(b) {
			p.fail("unexpected end of document")
			return nil
		}
		switch c := b[i]; {
		case c >= utf8.RuneSelf:
			n := charLen(b[i:])
			if n == 0 {
				p.fail("invalid UTF-8 or character")
				return nil
			}
			i += n
			continue
		case quote != 0 && c == quote:
			p.pos = i + 1
			return nil
		case c == '"' || c == '\'':
			i++
			continue
		case c == ']':
			if quote == 0 && p.peek("]]>") {
				p.fail("]]> in text")
				return nil
			}
			i++
			continue
		case c == '<' && quote != 0:
			p.fail("< in an attribute value")
			return nil
		case c == '<' && !p.peek("<!"):
			if p.peek("<?") {
				p.fail("processing instruction")
				return nil
			}
			if !rewritten {
				return b[start:i]
			}
			p.text = append(out, b[run:i]...)
			return p.text
		case c != '<' && c != '&' && c != '\r':
			p.fail("control character %#x", c)
			return nil
		}
		// A line end, a reference, a comment or a CDATA section: from
		// here on the text is rewritten into out.
		out, rewritten = append(out, b[run:i]...), true
		switch {
		case b[i] == '\r':
			out = append(out, '\n')
			if i++; i < len(b) && b[i] == '\n' {
				i++
			}
		case b[i] == '&':
			var r rune
			r, i = p.ref(i)
			out = utf8.AppendRune(out, r)
		case p.peek("<!--"):
			p.comment()
			i = p.pos
		case p.eat("<![CDATA["):
			out, i = p.cdata(out)
		default:
			p.fail(`"<!" that is neither a comment nor CDATA`)
		}
		if p.err != nil {
			return nil
		}
		run = i
	}
}

// charLen returns the length of the multi-byte character b starts with,
// or 0 when it is invalid UTF-8 or outside XML's Char range.
func charLen(b []byte) int {
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
		return 0
	}
	return n
}

func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || 0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD || 0x10000 <= r && r <= 0x10FFFF
}

// ref decodes the entity or character reference at b[i] ('&') and
// returns the offset after it.
func (p *parser) ref(i int) (rune, int) {
	b := p.buf[i+1 : min(i+12, len(p.buf))]
	if semi := bytes.IndexByte(b, ';'); semi > 0 {
		end := i + semi + 2
		switch string(b[:semi]) {
		case "lt":
			return '<', end
		case "gt":
			return '>', end
		case "amp":
			return '&', end
		case "apos":
			return '\'', end
		case "quot":
			return '"', end
		}
		if digits, base := b[1:semi], 10; b[0] == '#' {
			if len(digits) > 0 && digits[0] == 'x' {
				digits, base = digits[1:], 16
			}
			if n, err := strconv.ParseUint(string(digits), base, 32); err == nil && isChar(rune(n)) {
				return rune(n), end
			}
		}
	}
	p.fail("bad entity or character reference")
	return 0, i
}

// cdata appends the CDATA section starting at p.pos to out, checking its
// characters and normalising its line ends, and returns the offset after
// it.
func (p *parser) cdata(out []byte) ([]byte, int) {
	body := p.buf[p.pos:]
	end := bytes.Index(body, []byte("]]>"))
	if end < 0 {
		p.fail("unterminated CDATA section")
		return out, p.pos
	}
	for j := 0; j < end; {
		n := 1
		switch c := body[j]; {
		case c == '\r':
			out = append(out, '\n')
			if j++; j < end && body[j] == '\n' {
				j++
			}
			continue
		case c >= utf8.RuneSelf:
			n = charLen(body[j:end])
		case c < 0x20 && c != '\t' && c != '\n':
			n = 0
		}
		if n == 0 {
			p.pos += j
			p.fail("invalid character in CDATA")
			return out, p.pos
		}
		out = append(out, body[j:j+n]...)
		j += n
	}
	return out, p.pos + end + len("]]>")
}

// leaf returns the character data of a scalar element through its end
// tag.
func (p *parser) leaf(raw []byte) []byte {
	text := p.chars(0)
	p.close(raw)
	return text
}

func (p *parser) request() *rpc.Request {
	call := p.open("methodCall")
	name := p.open("methodName")
	req := &rpc.Request{Method: string(bytes.TrimSpace(p.leaf(name)))}
	if !p.atEnd() {
		params := p.open("params")
		for !p.atEnd() {
			param := p.open("param")
			req.Params = append(req.Params, p.value())
			p.close(param)
		}
		p.close(params)
	}
	p.close(call)
	return req
}

func (p *parser) response() *rpc.Response {
	top := p.open("methodResponse")
	raw, local := p.startTag()
	resp := &rpc.Response{}
	switch string(local) {
	case "params":
		param := p.open("param")
		resp.Result = p.value()
		p.close(param)
	case "fault":
		m, ok := p.value().(map[string]any)
		if !ok {
			p.fail("fault value is not a struct")
		}
		code, _ := m["faultCode"].(int)
		msg, _ := m["faultString"].(string)
		resp.Fault = &rpc.Fault{Code: code, Message: msg}
	default:
		p.fail("unexpected <%s> in methodResponse", local)
	}
	p.close(raw)
	p.close(top)
	return resp
}

// value decodes one <value> element: bare text is a string; otherwise
// one typed child with only whitespace and comments around it.
func (p *parser) value() any {
	v := p.open("value")
	text := p.chars(0)
	if p.empty || p.peek("</") {
		s := string(text)
		p.close(v)
		return s
	}
	if len(bytes.TrimLeft(text, " \t\n")) != 0 {
		p.fail("text before a typed value")
	}
	x := p.typed()
	p.close(v)
	return x
}

func (p *parser) typed() any {
	raw, local := p.startTag()
	switch string(local) {
	case "nil":
		p.close(raw)
		return nil
	case "string":
		return string(p.leaf(raw))
	case "int", "i4":
		return p.integer(raw, 32)
	case "i8":
		return p.integer(raw, 64)
	case "boolean":
		switch string(bytes.TrimSpace(p.leaf(raw))) {
		case "1", "true":
			return true
		case "0", "false":
			return false
		}
		p.fail("bad boolean")
	case "double":
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(p.leaf(raw))), 64)
		p.check(err)
		return f
	case "base64":
		s := bytes.TrimSpace(p.leaf(raw))
		data := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(data, s)
		p.check(err)
		return data[:n]
	case "dateTime.iso8601":
		s := string(bytes.TrimSpace(p.leaf(raw)))
		for _, layout := range iso8601Variants {
			if t, err := time.Parse(layout, s); err == nil {
				return t.UTC()
			}
		}
		p.fail("bad dateTime %q", s)
	case "array":
		data := p.open("data")
		arr := []any{}
		for !p.atEnd() {
			arr = append(arr, p.value())
		}
		p.close(data)
		p.close(raw)
		return arr
	case "struct":
		m := map[string]any{}
		for !p.atEnd() {
			member := p.open("member")
			name := p.open("name")
			key := string(p.leaf(name))
			m[key] = p.value()
			p.close(member)
		}
		p.close(raw)
		return m
	default:
		p.fail("unknown value type <%s>", local)
	}
	return nil
}

func (p *parser) integer(raw []byte, bits int) int {
	n, err := strconv.ParseInt(string(bytes.TrimSpace(p.leaf(raw))), 10, bits)
	p.check(err)
	return int(n)
}

// DecodeRequest implements rpc.Codec. Anything outside the language in
// the package comment is a CodeParse fault.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	req, err := parse(r, (*parser).request)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	return req, nil
}

// DecodeResponse implements rpc.Codec. It accepts the same language as
// DecodeRequest; a malformed reply is a plain error, not a fault, so a
// client does not mistake it for the server's answer.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	resp, err := parse(r, (*parser).response)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

var _ rpc.Codec = (*Codec)(nil)
