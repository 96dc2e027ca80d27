package xmlscan

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestDeclarationMatchesRegexp holds decl to the regular expression
// it replaced, on every prefix of a set of declarations and on every
// one-byte substitution in them from the bytes the grammar turns on.
func TestDeclarationMatchesRegexp(t *testing.T) {
	old := regexp.MustCompile(`^<\?xml[ \t\r\n]+version=("1\.0"|'1\.0')` +
		`([ \t\r\n]+encoding=("(?i:utf-8)"|'(?i:utf-8)'))?` +
		`([ \t\r\n]+standalone=("(yes|no)"|'(yes|no)'))?[ \t\r\n]*\?>`)
	decls := []string{
		`<?xml version="1.0"?>`,
		`<?xml version='1.0' encoding='UTF-8' standalone='no' ?>`,
		"<?xml\tversion=\"1.0\"\r\nencoding=\"uTf-8\"\n\n?>",
		`<?xml version="1.0" standalone="yes"?>`,
		`<?xml version="1.0" encoding='utf-8"?>`,
		`<?xml version="1.0" standalone="yes" encoding="utf-8"?>`,
		`<?xml version="1.0"encoding="utf-8"?>`,
		`<?xml-stylesheet version="1.0"?>`,
	}
	alphabet := []byte(" \t\"'<>?=-.01aefgnostuvxyFUYK\x00\xff")
	check := func(doc []byte) {
		want := 0
		if loc := old.FindIndex(doc); loc != nil {
			want = loc[1]
		}
		p := &Scanner{buf: doc}
		if p.decl(); p.err != nil {
			p.pos = 0
		}
		if p.pos != want {
			t.Errorf("decl(%q) ends at %d, regexp at %d", doc, p.pos, want)
		}
	}
	for _, d := range decls {
		doc := []byte(d + "<methodCall/>")
		for n := len("<?xml"); n <= len(doc); n++ {
			check(doc[:n])
		}
		for i := len("<?xml"); i < len(d); i++ {
			for _, c := range alphabet {
				mutated := bytes.Clone(doc)
				mutated[i] = c
				check(mutated)
			}
		}
	}
}

// TestAttr reads attributes by local name: references replaced, line
// ends normalised, the last of a repeated local name winning, on
// self-closing tags too, and nothing for a name the tag lacks.
func TestAttr(t *testing.T) {
	doc := "<a xsi:type=\"xsd:int\" x:nil='true' c='t&#114;ue&amp;' b=\"1\r\n2\" y:nil=\"false\"/>"
	_, err := Parse(strings.NewReader(doc), func(p *Scanner) any {
		raw := p.Open("a")
		for name, want := range map[string]string{"type": "xsd:int", "nil": "false", "c": "true&", "b": "1\n2"} {
			if got := p.Attr(name); string(got) != want {
				t.Errorf("Attr(%q) = %q, want %q", name, got, want)
			}
		}
		if got := p.Attr("missing"); got != nil {
			t.Errorf("Attr(missing) = %q", got)
		}
		p.Close(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkip skips a subtree holding text, CDATA, comments, attributes
// and self-closing children, and leaves the scanner on what follows.
func TestSkip(t *testing.T) {
	doc := `<r><h a="1">x<![CDATA[<y>]]><!-- z --><i><j/>k</i>&amp;</h><b>v</b></r>`
	got, err := Parse(strings.NewReader(doc), func(p *Scanner) string {
		r := p.Open("r")
		h := p.Open("h")
		p.Skip(h)
		b := p.Open("b")
		v := string(p.Leaf(b))
		p.Close(r)
		return v
	})
	if err != nil || got != "v" {
		t.Fatalf("got %q, %v", got, err)
	}
	for _, bad := range []string{`<r><h><i></h></i></r>`, `<r><h><?pi?></h></r>`, `<r><h>`} {
		_, err := Parse(strings.NewReader(bad), func(p *Scanner) any {
			r := p.Open("r")
			p.Skip(p.Open("h"))
			p.Close(r)
			return nil
		})
		if err == nil {
			t.Errorf("Skip accepted %q", bad)
		}
	}
}
