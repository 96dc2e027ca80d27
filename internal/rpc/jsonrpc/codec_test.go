package jsonrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"clarens/internal/rpc"
	"clarens/internal/rpc/codectest"
)

// same is rpc.Equal, extended to the json.Number IDs and objects inside
// IDs that normalizeID leaves as decoded.
func same(a, b any) bool { return rpc.Equal(a, b) || reflect.DeepEqual(a, b) }

func sameFault(a, b *rpc.Fault) bool { return a == nil && b == nil || a != nil && b != nil && *a == *b }

// rows is a table shaped like the rpc-large benchmark payload: 64
// structs {run, lfn, size, ok, tags}.
func rows() []any {
	out := make([]any, 64)
	for i := range out {
		out[i] = map[string]any{
			"run":  100000 + i,
			"lfn":  fmt.Sprintf("/store/data/run%06d/events.root", i),
			"size": float64(i)*1024 + 0.5,
			"ok":   i%2 == 0,
			"tags": []any{"muon", "jet", "electron"},
		}
	}
	return out
}

// portal returns the params and the result of a portal page load: one
// system.multicall of 64 sub-calls in the portal-multicall benchmark's
// mix, answered with two of them faulted.
func portal() (params []any, result any) {
	var calls []rpc.SubCall
	var results []any
	for i := 0; i < 64; i++ {
		switch {
		case i < 32:
			calls = append(calls, rpc.SubCall{Method: "system.ping"})
			results = append(results, rpc.MulticallValue("pong"))
		case i < 48:
			w := fmt.Sprintf("word%04d", i)
			calls = append(calls, rpc.SubCall{Method: "system.echo", Params: []any{w}})
			results = append(results, rpc.MulticallValue(w))
		case i < 56:
			calls = append(calls, rpc.SubCall{Method: "vo.is_member", Params: []any{"cms", "/O=grid/OU=People/CN=user " + fmt.Sprint(i)}})
			results = append(results, rpc.MulticallValue(i%2 == 0))
		default:
			calls = append(calls, rpc.SubCall{Method: "system.whoami", Trace: "0af7651916cd43dd8448eb211c80319c", Sample: i%2 == 0})
			results = append(results, rpc.MulticallValue("/O=grid/OU=People/CN=user & <co>"))
		}
	}
	results[5] = rpc.MulticallFault(&rpc.Fault{Code: rpc.CodeAccessDenied, Message: "access denied: method vo.is_member"})
	results[60] = rpc.MulticallFault(&rpc.Fault{Code: rpc.CodeOverloaded, Message: "server draining"})
	return rpc.MulticallParams(calls), results
}

func capture(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", path))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// captures are the committed bodies of real clients (testdata/browser
// and testdata/python, each written by the gen script there) with the
// request or response each decodes to.
var captures = []struct {
	file string
	want any
}{
	{"browser/request.json", &rpc.Request{Method: "system.echo", ID: 1, Params: []any{
		"line" + string(rune(0x2028)) + "sep",
		"astral " + string(rune(0x1D11E)),
		"</script><b>&amp;",
		"lone " + string(rune(0xFFFD)),
		"\"quoted\"\n\ttab",
		0, 1e21, 5e-324, 0.1, 3, -7, true, nil,
		map[string]any{"b": []any{1, 2.5}, "a": "x"},
	}}},
	{"browser/multicall.json", &rpc.Request{Method: rpc.MulticallMethod, ID: 1, Params: rpc.MulticallParams([]rpc.SubCall{
		{Method: "system.ping"},
		{Method: "system.echo", Params: []any{"hi"}},
		{Method: "vo.is_member", Params: []any{"cms", "/O=grid/CN=Alice"}},
		{Method: "system.whoami"},
	})}},
	{"browser/no-params.json", &rpc.Request{Method: "system.list_methods", ID: 1}},
	{"python/request.json", &rpc.Request{Method: "analysis.submit", ID: "py-1", Params: []any{
		"h" + string(rune(0xE9)) + " " + string(rune(0x1D11E)),
		1e-7, 1e16, 2.5, 42, -7, true, nil,
		[]byte{0, 1, 2, 255},
		time.Date(2005, 6, 15, 10, 30, 45, 5e8, time.UTC),
		map[string]any{"run": 42, base64Key: "aGk="},
		[]any{1, []any{2, []any{3}}},
	}}},
	{"python/response.json", &rpc.Response{ID: 7, Result: []any{map[string]any{
		"run": 100001, "lfn": "/store/data/x.root", "size": 1024.5, "ok": false,
		"tags": []any{"muon", "2005", "h" + string(rune(0xE9))},
	}}}},
	{"python/fault.json", &rpc.Response{ID: 7, Fault: &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: "method not found: x.y"}}},
}

// TestCaptures decodes what the portal's JavaScript and a Python client
// put on the wire, with the codec and with the reference.
func TestCaptures(t *testing.T) {
	for _, c := range captures {
		t.Run(c.file, func(t *testing.T) {
			for _, codec := range []rpc.Codec{New(), reference{}} {
				body := bytes.NewReader(capture(t, c.file))
				switch want := c.want.(type) {
				case *rpc.Request:
					got, err := codec.DecodeRequest(body)
					if err != nil || got.Method != want.Method || !same(got.Params, want.Params) || !same(got.ID, want.ID) {
						t.Errorf("%T: got %#v, %v", codec, got, err)
					}
				case *rpc.Response:
					got, err := codec.DecodeResponse(body)
					if err != nil || !same(got.Result, want.Result) || !sameFault(got.Fault, want.Fault) || !same(got.ID, want.ID) {
						t.Errorf("%T: got %#v, %v", codec, got, err)
					}
				}
			}
		})
	}
}

// writerOnly hides a buffer's type, so the encoder takes its staging path.
type writerOnly struct{ io.Writer }

// sameWire runs encode with the codec and with the reference and fails
// the test unless both give the same bytes, or both fail and leave the
// buffer as it was. The codec writes both into a buffer of its own and
// through a plain writer. It returns the codec's error.
func sameWire(t *testing.T, encode func(rpc.Codec, io.Writer) error) error {
	t.Helper()
	got, staged, want := bytes.NewBufferString("x"), bytes.NewBufferString("x"), bytes.NewBufferString("x")
	err := encode(New(), got)
	errStaged := encode(New(), writerOnly{staged})
	errWant := encode(reference{}, want)
	if (err == nil) != (errWant == nil) || (errStaged == nil) != (errWant == nil) {
		t.Fatalf("errors: codec %v, staged %v, reference %v", err, errStaged, errWant)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || !bytes.Equal(staged.Bytes(), want.Bytes()) {
		t.Fatalf("wire bytes differ:\ncodec     %q\nstaged    %q\nreference %q", got, staged, want)
	}
	return err
}

// encodeBoth encodes v as a request parameter and as a result, under id.
func encodeBoth(t *testing.T, v, id any) error {
	t.Helper()
	errReq := sameWire(t, func(c rpc.Codec, w io.Writer) error {
		return c.EncodeRequest(w, &rpc.Request{Method: "system.echo", Params: []any{v}, ID: id})
	})
	errResp := sameWire(t, func(c rpc.Codec, w io.Writer) error {
		return c.EncodeResponse(w, &rpc.Response{Result: v, ID: id})
	})
	return errors.Join(errReq, errResp)
}

// encodeIDs are correlation IDs as clients send them and as a server
// echoes them once decoded: nil is 1 in a request and null in a
// response, and a json.Number normalizeID could not convert is kept.
var encodeIDs = []any{
	nil, 1, -3, "abc-<1>", true, 2.5, 3.0,
	json.Number("1e999"), json.Number("12"),
	map[string]any{"b": json.Number("1"), "a": []any{"x", nil}},
	[]any{"x", json.Number("-2.5e-9")},
}

func TestEncoderMatchesReference(t *testing.T) {
	params, result := portal()
	manyKeys := map[string]any{}
	for i := 0; i < 12; i++ {
		manyKeys[fmt.Sprintf("k%02d", 11-i)] = i
	}
	values := map[string]any{
		"rows":          rows(),
		"portal-params": params,
		"portal-result": result,
		// non-canonical Go values, through rpc.Normalize
		"int64":         int64(-1 << 40),
		"uint8":         uint8(7),
		"uint64":        uint64(1<<63 - 1),
		"int8":          int8(-8),
		"float32":       float32(1.5),
		"float32-tenth": float32(0.1),
		"strings":       []string{"x", "<y>"},
		"string-map":    map[string]string{"b": "1", "a": "<2>"},
		"ints":          []int{1, 2},
		"floats":        []float64{1, 0.5},
		"nested-wide":   []any{int64(5), float32(2), map[string]any{"k": uint16(3)}},
		// strings
		"html":              "<a href='x'>&amp;</a>",
		"controls":          "\b\f\n\r\t\x00\x01\x1f\x7f\"\\/",
		"printable-ascii":   " !#$%'()*+,-./09:;=?@AZ[]^_`az{|}~\x7f",
		"one-escape-each":   []any{"a&b", "a>b", "a<b", `a"b`, `a\b`, "a\x1fb", "a\xc3\xa9b"},
		"separators":        "a\xe2\x80\xa8b\xe2\x80\xa9c",
		"invalid-utf8":      "a\xffb\xc3",
		"surrogate-utf8":    "\xed\xa0\x80",
		"replacement-char":  "\xef\xbf\xbd",
		"astral":            "\xf0\x9d\x84\x9e",
		"unicode":           "héllo wörld ψ",
		"keys-to-escape":    map[string]any{"b": 1, "a": 2, "<": 3, "\xff": 4, "\xfe": 5, "é": 6, "": 7, "\n": 8},
		"keys-beyond-eight": manyKeys,
		// floats
		"1e-6":         1e-6,
		"below-1e-6":   9.99999e-7,
		"1e-7":         1e-7,
		"-1e-7":        -1e-7,
		"1.5e-300":     1.5e-300,
		"subnormal":    5e-324,
		"1e20":         1e20,
		"1e21":         1e21,
		"below-1e21":   999999999999999900000.0,
		"1e300":        1e300,
		"max":          math.MaxFloat64,
		"fraction":     123456789.125,
		"tenth":        0.1,
		"third":        1.0 / 3,
		"below-2^52":   4503599627370495.5,
		"zero":         0.0,
		"negative-0":   math.Copysign(0, -1),
		"integral":     3.0,
		"integral-neg": -2.0,
		// the rest of the value model
		"nil":           nil,
		"nil-array":     []any(nil),
		"nil-struct":    map[string]any(nil),
		"nil-bytes":     []byte(nil),
		"time-zone":     time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.FixedZone("x", 3600)),
		"time-zero":     time.Time{},
		"sentinel-like": map[string]any{base64Key: "aGk=", timeKey: 1},
	}
	for name, v := range codectest.Values() {
		values["codectest/"+name] = v
	}
	for name, v := range values {
		t.Run(name, func(t *testing.T) {
			for _, id := range encodeIDs {
				if err := encodeBoth(t, v, id); err != nil {
					t.Fatalf("id %#v: %v", id, err)
				}
			}
		})
	}

	t.Run("faults", func(t *testing.T) {
		for _, f := range []rpc.Fault{
			{Code: rpc.CodeAccessDenied, Message: "access denied: method file.write"},
			{Code: 0, Message: ""},
			{Code: 4, Message: "<b>&</b> a\xe2\x80\xa8b \xff"},
			{Code: math.MinInt64, Message: "min"},
		} {
			for _, id := range encodeIDs {
				if err := sameWire(t, func(c rpc.Codec, w io.Writer) error {
					return c.EncodeResponse(w, &rpc.Response{Fault: &f, Result: "ignored", ID: id})
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	})

	t.Run("method-names", func(t *testing.T) {
		for _, m := range []string{"", "a<b>&c", "\x00\xff"} {
			if err := sameWire(t, func(c rpc.Codec, w io.Writer) error {
				return c.EncodeRequest(w, &rpc.Request{Method: m})
			}); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Values JSON has no form for: both encoders refuse them, and write
	// nothing.
	bad := map[string]any{
		"nan":          math.NaN(),
		"+inf":         math.Inf(1),
		"-inf":         math.Inf(-1),
		"nested-nan":   []any{1, math.NaN()},
		"nested-inf":   map[string]any{"a": math.Inf(1)},
		"float32-inf":  float32(math.Inf(1)),
		"channel":      make(chan int),
		"uint-too-big": uint64(1 << 63),
	}
	for name, v := range bad {
		t.Run("refused/"+name, func(t *testing.T) {
			if err := encodeBoth(t, v, 1); err == nil {
				t.Fatal("encoded")
			}
		})
	}
	t.Run("refused/id", func(t *testing.T) {
		if err := encodeBoth(t, "v", make(chan int)); err == nil {
			t.Fatal("encoded")
		}
	})
}

// edges are hand-written documents on the borders of the accepted
// language: each fault class, the envelope's member matching, numbers
// beyond int64 and float64, sentinels, and trailing bytes.
var edges = []string{
	`{"method":"m","params":{"a":1},"id":1}`,
	`{"method":"m","params":"x"}`,
	`{"params":[],"id":1}`,
	`{"method":5}`,
	`{"jsonrpc":2,"method":"m"}`,
	`[1]`,
	`null`,
	`{"METHOD":"m","Params":[1],"ID":2,"JsonRpc":"1.0"}`,
	`{"method":"m","params":[1],"params":null}`,
	`{"method":"m","params":[-0,1E2,18446744073709551616,-9223372036854775808]}`,
	`{"method":"m","params":[1e999]}`,
	`{"method":"m","params":[1e-999]}`,
	`{"method":"m","id":1e999}`,
	`{"method":"m","id":{"a":[1,2.5]}}`,
	`{"method":"m","params":[{"__jsonclass_base64__":"!"}]}`,
	`{"method":"m","params":[{"__jsonclass_datetime__":5}]}`,
	`{"method":"m","params":[{"__jsonclass_datetime__":"2005-13-01T00:00:00Z"}]}`,
	`{"method":"m"} trailing`,
	`{"method":"m"`,
	`{"result":[1],"error":{"code":3,"message":"x"},"id":1}`,
	`{"result":{"__jsonclass_base64__":"!"},"error":null}`,
	`{"result":[1e999],"error":{"code":1}}`,
	`{"error":{"code":1.5}}`,
	`{"error":{}}`,
	`{"error":"x"}`,
	`{"error":{"code":1},"error":{"message":"m"}}`,
}

// seeds is the fuzz corpus both targets start from: the codectest value
// model, an rpc-large-shaped table and a portal batch as requests and
// responses, a fault, the captures and the edges.
func seeds(t testing.TB) [][]byte {
	var out [][]byte
	add := func(params []any, result any) {
		var req, resp bytes.Buffer
		if err := New().EncodeRequest(&req, &rpc.Request{Method: "system.echo", Params: params, ID: 1}); err != nil {
			t.Fatal(err)
		}
		if err := New().EncodeResponse(&resp, &rpc.Response{Result: result, ID: 1}); err != nil {
			t.Fatal(err)
		}
		out = append(out, req.Bytes(), resp.Bytes())
	}
	for _, v := range codectest.Values() {
		add([]any{v}, v)
	}
	add([]any{rows()}, rows())
	add(portal())
	var fault bytes.Buffer
	if err := New().EncodeResponse(&fault, &rpc.Response{Fault: &rpc.Fault{Code: 4, Message: "<no>"}, ID: "x"}); err != nil {
		t.Fatal(err)
	}
	out = append(out, fault.Bytes())
	for _, c := range captures {
		out = append(out, capture(t, c.file))
	}
	for _, e := range edges {
		out = append(out, []byte(e))
	}
	return out
}

func faultCode(err error) int {
	var f *rpc.Fault
	if errors.As(err, &f) {
		return f.Code
	}
	if err != nil {
		return 1
	}
	return 0
}

// FuzzDecodeRequest holds the codec to the reference in reference_test.go
// from both sides: the two accept the same documents, refuse the rest
// with the same fault code, decode equal values, and encode what they
// decoded to the same bytes.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeRequest(bytes.NewReader(data))
		want, errWant := reference{}.DecodeRequest(bytes.NewReader(data))
		if faultCode(err) != faultCode(errWant) {
			t.Fatalf("codec %v, reference %v", err, errWant)
		}
		if err != nil {
			return
		}
		if got.Method != want.Method || !same(got.Params, want.Params) || !same(got.ID, want.ID) {
			t.Fatalf("got %q %#v id %#v, reference %q %#v id %#v", got.Method, got.Params, got.ID, want.Method, want.Params, want.ID)
		}
		if err := sameWire(t, func(c rpc.Codec, w io.Writer) error { return c.EncodeRequest(w, got) }); err != nil {
			t.Fatal(err)
		}
		if err := sameWire(t, func(c rpc.Codec, w io.Writer) error {
			return c.EncodeResponse(w, &rpc.Response{Result: got.Params, ID: got.ID})
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest's oracle for responses, which
// are refused with plain errors rather than faults.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range seeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeResponse(bytes.NewReader(data))
		want, errWant := reference{}.DecodeResponse(bytes.NewReader(data))
		if (err == nil) != (errWant == nil) {
			t.Fatalf("codec %v, reference %v", err, errWant)
		}
		if err != nil {
			return
		}
		if !same(got.Result, want.Result) || !sameFault(got.Fault, want.Fault) || !same(got.ID, want.ID) {
			t.Fatalf("got %#v %v id %#v, reference %#v %v id %#v", got.Result, got.Fault, got.ID, want.Result, want.Fault, want.ID)
		}
		if err := sameWire(t, func(c rpc.Codec, w io.Writer) error { return c.EncodeResponse(w, got) }); err != nil {
			t.Fatal(err)
		}
		if err := sameWire(t, func(c rpc.Codec, w io.Writer) error {
			return c.EncodeRequest(w, &rpc.Request{Method: "m", Params: []any{got.Result}, ID: got.ID})
		}); err != nil {
			t.Fatal(err)
		}
	})
}
