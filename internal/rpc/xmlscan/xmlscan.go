// Package xmlscan is the one XML lexer behind the XML-RPC and SOAP
// codecs: one bounded pass over a whole document in a pooled buffer,
// each codec's grammar written as calls on a Scanner. It accepts an
// optional declaration at the first byte (version="1.0", then optionally
// encoding="utf-8" in any case and standalone="yes"|"no"), comments,
// ASCII names with at most one ':' parting a prefix from the local name,
// quoted attributes, the five named entities, character references and
// CDATA, and reads "\r\n" and "\r" as "\n". Anything else is an error,
// as is a mismatched end tag or nesting deeper than rpc.MaxDepth.
package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"clarens/internal/rpc"
)

// Scanner is one pass over a whole document held in memory. Errors are
// sticky: after the first, every step is a no-op and every list reads as
// ended, so a grammar written on it reads as the grammar.
type Scanner struct {
	in    bytes.Buffer // the document; recycled with the scanner
	buf   []byte       // in.Bytes()
	pos   int
	depth int
	empty bool   // the last start tag was self-closing: its end is implied
	attrs []attr // the last start tag's attributes
	text  []byte // scratch for character data that had to be rewritten
	err   error
}

// attr is one attribute of the last start tag: its local name and the
// offset of its value, just past the opening quote.
type attr struct {
	local []byte
	value int
}

var scannerPool = sync.Pool{New: func() any { return new(Scanner) }}

// scannerRetainLimit is the largest document buffer returned to the pool;
// one oversized body must not pin its buffer forever.
const scannerRetainLimit = 1 << 20

// Parse reads r whole into a pooled buffer and runs doc over it: an
// optional declaration, the document element, then only whitespace and
// comments to the end. The Scanner must not be kept past doc.
func Parse[T any](r io.Reader, doc func(*Scanner) T) (T, error) {
	p := scannerPool.Get().(*Scanner)
	p.in.Reset()
	_, p.err = p.in.ReadFrom(r)
	p.buf, p.pos, p.depth, p.empty = p.in.Bytes(), 0, 0, false
	if p.peek("<?xml") {
		p.decl()
	}
	v := doc(p)
	p.misc()
	if p.err == nil && p.pos != len(p.buf) {
		p.Fail("content after the document element")
	}
	err := p.err
	p.buf, p.err, p.attrs = nil, nil, p.attrs[:0]
	if p.in.Cap() <= scannerRetainLimit {
		scannerPool.Put(p)
	}
	return v, err
}

// decl reads the one XML declaration accepted: version 1.0, then
// optionally UTF-8 (any case) and a standalone flag, in that order.
func (p *Scanner) decl() {
	p.eat("<?xml")
	ok := p.declAttr("version=", false, "1.0")
	p.declAttr("encoding=", true, "utf-8")
	p.declAttr("standalone=", false, "yes", "no")
	if p.space(); !ok || !p.eat("?>") {
		p.Fail("unsupported XML declaration")
	}
}

// declAttr reads whitespace, then name and a value from vals in either
// quote (in any ASCII case when fold is set), and reports whether it
// did; when it did not, p.pos is left where it was.
func (p *Scanner) declAttr(name string, fold bool, vals ...string) bool {
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

// Fail records the first error, at the current offset.
func (p *Scanner) Fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
	}
}

// Check records err, if any, as the first error.
func (p *Scanner) Check(err error) {
	if err != nil {
		p.Fail("%v", err)
	}
}

// peek reports whether the input continues with s; eat also consumes it.
func (p *Scanner) peek(s string) bool {
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

func (p *Scanner) eat(s string) bool {
	ok := p.peek(s)
	if ok {
		p.pos += len(s)
	}
	return ok
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *Scanner) space() {
	b, i := p.buf, p.pos
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	p.pos = i
}

// misc skips whitespace and comments between elements.
func (p *Scanner) misc() {
	for p.space(); p.peek("<!--"); p.space() {
		p.comment()
	}
}

// comment skips the comment at p.pos; "--" may only close it.
func (p *Scanner) comment() {
	body := p.buf[p.pos+len("<!--"):]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || end+2 == len(body) || body[end+2] != '>' {
		p.Fail(`unterminated comment or "--" inside a comment`)
		return
	}
	p.pos += len("<!--") + end + len("-->")
}

// name scans an element or attribute name: ASCII letters, digits and
// "_.-", starting with a letter or '_', with at most one ':' parting a
// namespace prefix from a non-empty local part, which it returns.
func (p *Scanner) name() (raw, local []byte) {
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
		p.Fail("bad name")
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

// StartTag reads the next start tag, checking its attributes and
// keeping them for Attr, and returns its raw name and local part. Both
// alias the document and stay valid for the whole pass.
func (p *Scanner) StartTag() (raw, local []byte) {
	if p.empty {
		p.Fail("element closed before its content")
	}
	p.misc()
	p.attrs = p.attrs[:0]
	if p.peek("</") || !p.eat("<") {
		p.Fail("expected a start tag")
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
		_, name := p.name()
		p.space()
		if !p.eat("=") {
			p.Fail("attribute without a value")
		}
		p.space()
		if p.eat(`"`) || p.eat(`'`) {
			p.attrs = append(p.attrs, attr{name, p.pos})
			p.chars(p.buf[p.pos-1])
		} else {
			p.Fail("unquoted attribute value")
		}
	}
	if p.depth++; p.depth > rpc.MaxDepth {
		p.Fail("elements nested deeper than %d", rpc.MaxDepth)
	}
	return raw, local
}

// Attr returns the value of the last start tag's attribute with the
// given local name, references replaced and line ends normalised, or nil
// when it has none; when the tag repeats the local name, the last one
// counts. The value is valid until the next call that reads text.
func (p *Scanner) Attr(local string) []byte {
	for i := len(p.attrs) - 1; i >= 0; i-- {
		if a := p.attrs[i]; string(a.local) == local {
			pos := p.pos
			p.pos = a.value
			v := p.chars(p.buf[a.value-1])
			p.pos = pos
			return v
		}
	}
	return nil
}

// Open reads the start tag of the element the grammar requires next.
func (p *Scanner) Open(want string) []byte {
	raw, local := p.StartTag()
	if string(local) != want {
		p.Fail("expected <%s>, got <%s>", want, local)
	}
	return raw
}

// Close consumes the end tag of the element opened as raw.
func (p *Scanner) Close(raw []byte) {
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
	p.Fail("expected </%s>", raw)
}

// AtEnd reports whether the current element's end tag comes next, after
// whitespace and comments. After an error every list is at its end.
func (p *Scanner) AtEnd() bool {
	if p.err == nil && !p.empty {
		p.misc()
	}
	return p.err != nil || p.empty || p.peek("</")
}

// Skip consumes the rest of the element opened as raw, whatever
// well-formed content it holds, through its end tag.
func (p *Scanner) Skip(raw []byte) {
	for p.Text(); !p.AtEnd(); p.Text() {
		child, _ := p.StartTag()
		p.Skip(child)
	}
	p.Close(raw)
}

// Leaf returns the character data of a scalar element through its end
// tag.
func (p *Scanner) Leaf(raw []byte) []byte {
	text := p.Text()
	p.Close(raw)
	return text
}

// Text reads character data up to the next tag, as chars(0) does.
func (p *Scanner) Text() []byte { return p.chars(0) }

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
// through its closing quote. References are replaced and line ends
// normalised. The result aliases the document when nothing was
// rewritten and p.text otherwise; either way it is valid until the next
// call.
func (p *Scanner) chars(quote byte) []byte {
	if p.err != nil || p.empty && quote == 0 {
		return nil
	}
	b, i := p.buf, p.pos
	start, run, out, rewritten := i, i, p.text[:0], false
scan:
	for {
		for i < len(b) && !special[b[i]] {
			i++
		}
		p.pos = i
		if i == len(b) {
			p.Fail("unexpected end of document")
			return nil
		}
		switch c := b[i]; {
		case c >= utf8.RuneSelf:
			n := charLen(b[i:])
			if n == 0 {
				p.Fail("invalid UTF-8 or character")
				return nil
			}
			i += n
			continue
		case quote != 0 && c == quote:
			p.pos = i + 1
			break scan
		case c == '"' || c == '\'':
			i++
			continue
		case c == ']':
			if quote == 0 && p.peek("]]>") {
				p.Fail("]]> in text")
				return nil
			}
			i++
			continue
		case c == '<' && quote != 0:
			p.Fail("< in an attribute value")
			return nil
		case c == '<' && !p.peek("<!"):
			if p.peek("<?") {
				p.Fail("processing instruction")
				return nil
			}
			break scan
		case c != '<' && c != '&' && c != '\r':
			p.Fail("control character %#x", c)
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
			p.Fail(`"<!" that is neither a comment nor CDATA`)
		}
		if p.err != nil {
			return nil
		}
		run = i
	}
	if !rewritten {
		return b[start:i]
	}
	p.text = append(out, b[run:i]...)
	return p.text
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
func (p *Scanner) ref(i int) (rune, int) {
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
	p.Fail("bad entity or character reference")
	return 0, i
}

// cdata appends the CDATA section starting at p.pos to out, checking its
// characters and normalising its line ends, and returns the offset after
// it.
func (p *Scanner) cdata(out []byte) ([]byte, int) {
	body := p.buf[p.pos:]
	end := bytes.Index(body, []byte("]]>"))
	if end < 0 {
		p.Fail("unterminated CDATA section")
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
			p.Fail("invalid character in CDATA")
			return out, p.pos
		}
		out = append(out, body[j:j+n]...)
		j += n
	}
	return out, p.pos + end + len("]]>")
}
