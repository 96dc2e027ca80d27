package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTypedSignaturesAndFaults(t *testing.T) {
	isMember := Func2(func(_ *Context, group, dn string) (bool, error) { return group == dn, nil })
	read := Func3(func(_ *Context, name string, off, n Opt[int]) (map[string]any, error) {
		return map[string]any{"name": name, "off": off.Or(0), "n": n.Or(-1)}, nil
	})
	flag := Func1(func(_ *Context, b bool) (bool, error) { return b, nil })
	for _, c := range []struct {
		typed Typed
		want  string
	}{
		{isMember, "boolean string string"},
		{read, "struct string int int"},
		{Func0(func(*Context) (time.Time, error) { return time.Time{}, nil }), "dateTime.iso8601"},
		{Func1(func(_ *Context, v Opt[any]) (any, error) { return v.Or(nil), nil }), "any any"},
		{Func4(func(*Context, []byte, bool, []string, Opt[[]string]) ([]any, error) { return nil, nil }), "array base64 boolean array array"},
	} {
		if got := strings.Join(c.typed.signature, "|"); got != c.want {
			t.Errorf("signature %q, want %q", got, c.want)
		}
	}
	for _, c := range []struct {
		typed  Typed
		params Params
		want   string
	}{
		{isMember, Params{"g"}, "rpc fault -32602: missing parameter 1"},
		{isMember, Params{"g", 7}, "rpc fault -32602: parameter 1: want string, got int"},
		{isMember, Params{"g", "g", "surplus"}, "true"},
		{read, Params{"f"}, "map[n:-1 name:f off:0]"},
		{read, Params{"f", 2.0, 5}, "map[n:5 name:f off:2]"},
		{read, Params{"f", 1, "x"}, "rpc fault -32602: parameter 2: want int, got string"},
		{flag, Params{true}, "true"},
		{flag, Params{1}, "true"},
		{flag, Params{0.0}, "false"},
		{flag, Params{2}, "rpc fault -32602: parameter 0: want bool, got int"},
		{flag, Params{"true"}, "rpc fault -32602: parameter 0: want bool, got string"},
	} {
		v, err := c.typed.handler(nil, c.params)
		got := fmt.Sprint(v)
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%v: got %s, want %s", c.params, got, c.want)
		}
	}
}

func TestTypedDeclarationPanics(t *testing.T) {
	for name, declare := range map[string]func(){
		"required after Opt": func() { Func2(func(*Context, Opt[int], string) (int, error) { return 0, nil }) },
		"nested Opt":         func() { Func1(func(*Context, Opt[Opt[int]]) (int, error) { return 0, nil }) },
		"parameter type":     func() { Func1(func(*Context, float64) (int, error) { return 0, nil }) },
		"result type":        func() { Func0(func(*Context) (float64, error) { return 0, nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declaration did not panic", name)
				}
			}()
			declare()
		}()
	}
}

func TestTypedAdapterAllocatesNothing(t *testing.T) {
	isMember := Func2(func(_ *Context, group, dn string) (bool, error) { return len(group) < len(dn), nil }).handler
	echo := Func1(func(_ *Context, v Opt[any]) (any, error) { return v.Or(nil), nil }).handler
	two, one := Params{"cms", "/O=x/CN=y"}, Params{[]any{1, "x"}}
	if n := testing.AllocsPerRun(100, func() { isMember(nil, two) }); n != 0 {
		t.Errorf("Func2[string,string]→bool call allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { echo(nil, one) }); n != 0 {
		t.Errorf("Func1[Opt[any]]→any call allocates %v times", n)
	}
}
