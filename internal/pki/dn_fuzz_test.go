package pki

import (
	"reflect"
	"testing"
)

// FuzzParseDN feeds DN strings to the parser. It must never panic, and
// every DN it accepts must survive the round trip String documents:
// ParseDN(d.String()) gives d back.
func FuzzParseDN(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDN(s)
		if err != nil {
			return
		}
		back, err := ParseDN(d.String())
		if err != nil {
			t.Fatalf("%q parsed to %q, whose String %q does not parse: %v", s, d, d.String(), err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("%q parsed to %#v; String %q parses to %#v", s, d, d.String(), back)
		}
	})
}
