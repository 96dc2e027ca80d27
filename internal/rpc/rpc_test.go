package rpc

import (
	"reflect"
	"testing"
	"time"
)

func TestNormalizeScalars(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{nil, nil},
		{true, true},
		{int8(-3), -3},
		{int16(9), 9},
		{int32(7), 7},
		{int64(1 << 40), 1 << 40},
		{uint(5), 5},
		{uint8(200), 200},
		{uint16(1000), 1000},
		{uint32(70000), 70000},
		{uint64(12), 12},
		{float32(0.5), 0.5},
		{3.25, 3.25},
		{"s", "s"},
	}
	for _, c := range cases {
		got, err := Normalize(c.in)
		if err != nil {
			t.Errorf("Normalize(%v): %v", c.in, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Normalize(%#v) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestNormalizeOverflow(t *testing.T) {
	if _, err := Normalize(uint64(1 << 63)); err == nil {
		t.Error("uint64 overflow should error")
	}
	if _, err := Normalize(uint(1<<63 + 1)); err == nil {
		t.Error("uint overflow should error")
	}
}

func TestNormalizeComposites(t *testing.T) {
	got, err := Normalize(map[string]any{
		"ints":    []int{1, 2},
		"strs":    []string{"a", "b"},
		"floats":  []float64{1.5},
		"strmap":  map[string]string{"k": "v"},
		"nested":  []any{int32(1), map[string]any{"x": int64(2)}},
		"bytes":   []byte{1, 2, 3},
		"instant": time.Unix(0, 0).UTC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := got.(map[string]any)
	if !Equal(m["ints"], []any{1, 2}) {
		t.Errorf("ints = %#v", m["ints"])
	}
	if !Equal(m["strs"], []any{"a", "b"}) {
		t.Errorf("strs = %#v", m["strs"])
	}
	if !Equal(m["strmap"], map[string]any{"k": "v"}) {
		t.Errorf("strmap = %#v", m["strmap"])
	}
	if !Equal(m["nested"], []any{1, map[string]any{"x": 2}}) {
		t.Errorf("nested = %#v", m["nested"])
	}
}

func TestNormalizeUnsupported(t *testing.T) {
	if _, err := Normalize(struct{}{}); err == nil {
		t.Error("struct should be unsupported")
	}
	if _, err := Normalize([]any{make(chan int)}); err == nil {
		t.Error("nested unsupported type should propagate")
	}
	if _, err := Normalize(map[string]any{"k": complex(1, 2)}); err == nil {
		t.Error("nested unsupported map value should propagate")
	}
}

func TestNormalizeParams(t *testing.T) {
	ps, err := NormalizeParams([]any{int64(1), "x", []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(ps[0], 1) || !Equal(ps[1], "x") || !Equal(ps[2], []any{"a"}) {
		t.Errorf("NormalizeParams = %#v", ps)
	}
	if _, err := NormalizeParams([]any{struct{}{}}); err == nil {
		t.Error("unsupported param should error")
	}
}

func TestEqual(t *testing.T) {
	now := time.Now()
	eq := [][2]any{
		{nil, nil},
		{true, true},
		{1, 1},
		{1.5, 1.5},
		{"a", "a"},
		{[]byte{1}, []byte{1}},
		{now, now},
		{[]any{1, "a"}, []any{1, "a"}},
		{map[string]any{"k": 1}, map[string]any{"k": 1}},
	}
	for _, c := range eq {
		if !Equal(c[0], c[1]) {
			t.Errorf("Equal(%#v, %#v) = false", c[0], c[1])
		}
	}
	ne := [][2]any{
		{nil, 1},
		{true, false},
		{1, 2},
		{1, 1.0},
		{"a", "b"},
		{[]byte{1}, []byte{2}},
		{[]byte{1}, []byte{1, 2}},
		{now, now.Add(time.Second)},
		{[]any{1}, []any{2}},
		{[]any{1}, []any{1, 2}},
		{map[string]any{"k": 1}, map[string]any{"k": 2}},
		{map[string]any{"k": 1}, map[string]any{"j": 1}},
		{map[string]any{"k": 1}, map[string]any{"k": 1, "j": 2}},
		{struct{}{}, struct{}{}}, // unsupported type is never equal
	}
	for _, c := range ne {
		if Equal(c[0], c[1]) {
			t.Errorf("Equal(%#v, %#v) = true", c[0], c[1])
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Code: CodeAccessDenied, Message: "no"}
	if f.Error() == "" {
		t.Error("Fault.Error should produce a message")
	}
}

// TestAs pins the one coercion rule: the encodings each Go type takes,
// and the text of a refusal, which names the failing array element.
func TestAs(t *testing.T) {
	as := map[string]func(any) (any, error){
		"string":  func(v any) (any, error) { return As[string](v) },
		"int":     func(v any) (any, error) { return As[int](v) },
		"bool":    func(v any) (any, error) { return As[bool](v) },
		"bytes":   func(v any) (any, error) { return As[[]byte](v) },
		"strings": func(v any) (any, error) { return As[[]string](v) },
		"array":   func(v any) (any, error) { return As[[]any](v) },
		"struct":  func(v any) (any, error) { return As[map[string]any](v) },
		"time":    func(v any) (any, error) { return As[time.Time](v) },
		"any":     func(v any) (any, error) { return As[any](v) },
		"float64": func(v any) (any, error) { return As[float64](v) },
	}
	when := time.Date(2005, 6, 14, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		as   string
		in   any
		want any // the converted value, or the refusal's text
	}{
		{"string", "s", "s"},
		{"string", 1, "want string, got int"},
		{"int", 7, 7},
		{"int", int64(1 << 40), 1 << 40},
		{"int", -3.0, -3},
		{"int", 3.5, "want int, got float64"},
		{"int", true, "want int, got bool"},
		{"bool", false, false},
		{"bool", 1, true},
		{"bool", 0.0, false},
		{"bool", 2, "want bool, got int"},
		{"bool", 0.5, "want bool, got float64"},
		{"bytes", []byte("b"), []byte("b")},
		{"bytes", "s", []byte("s")},
		{"bytes", 1, "want bytes, got int"},
		{"strings", []any{"a", "b"}, []string{"a", "b"}},
		{"strings", []any{}, []string{}},
		{"strings", []any{"a", 2}, "element 1: want string, got int"},
		{"strings", "a", "want array, got string"},
		{"array", []any{1}, []any{1}},
		{"array", []string{"a"}, "want array, got []string"},
		{"struct", map[string]any{"k": 1}, map[string]any{"k": 1}},
		{"struct", []any{}, "want struct, got []interface {}"},
		{"time", when, when},
		{"time", "2005-06-14", "want time.Time, got string"},
		{"any", nil, nil},
		{"any", 1, 1},
		{"float64", 1.5, 1.5},
		{"float64", 1, "want float64, got int"},
	} {
		got, err := as[c.as](c.in)
		if err != nil {
			got = err.Error()
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("As[%s](%#v) = %#v, want %#v", c.as, c.in, got, c.want)
		}
	}
}
