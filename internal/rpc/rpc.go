// Package rpc defines the protocol-independent request/response model that
// the Clarens framework dispatches on, and the Codec interface implemented
// by the XML-RPC, SOAP, and JSON-RPC wire formats (paper §1, §2: "At the
// basis of a Web Service call is a protocol (frequently, but not
// exclusively, XML-RPC or SOAP)"; Clarens supports "multiple protocols
// (XML-RPC, SOAP, ... JSON-RPC)").
//
// Value model shared by all codecs. Encoders accept and decoders produce:
//
//	nil, bool, int, int64, float64, string, []byte, time.Time,
//	[]any (arrays), map[string]any (structs)
//
// Decoders normalize integers to int and nested composites recursively.
package rpc

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Request is a decoded method invocation.
type Request struct {
	Method string
	Params []any
	// ID is the request correlation ID where the protocol has one
	// (JSON-RPC); nil otherwise.
	ID any
}

// Response is the result of a method invocation: exactly one of Result or
// Fault is meaningful.
type Response struct {
	Result any
	Fault  *Fault
	ID     any
}

// Fault is a protocol-level error (XML-RPC fault / SOAP Fault / JSON-RPC
// error object). It implements error.
type Fault struct {
	Code    int
	Message string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("rpc fault %d: %s", f.Code, f.Message)
}

// Standard fault codes used by the framework, aligned with the XML-RPC
// spec extensions and JSON-RPC 2.0 reserved ranges where sensible.
const (
	CodeParse          = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeInternal       = -32603
	CodeAccessDenied   = -32001
	CodeNotAuthorized  = -32002
	// CodeOverloaded marks a call the server refused BEFORE executing it
	// — load shedding or a graceful drain in progress. It is the one
	// fault code clients may always retry (with backoff, ideally against
	// another peer): the request provably had no effect.
	CodeOverloaded  = -32003
	CodeApplication = -32500
)

// Input bounds on untrusted bytes, the same for every codec and both
// ends of the wire.
const (
	// MaxBodyBytes is the largest request or response body read.
	MaxBodyBytes = 64 << 20
	// MaxDepth is the deepest element nesting an XML decoder accepts.
	MaxDepth = 512
)

// Retryable reports whether a fault code indicates a request that never
// executed and is therefore safe to retry on any method.
func Retryable(code int) bool { return code == CodeOverloaded }

// Codec translates between wire bytes and the request/response model. A
// Codec must be safe for concurrent use.
type Codec interface {
	// Name is the short protocol name: "xmlrpc", "soap", "jsonrpc".
	Name() string
	// ContentTypes lists the MIME types this codec serves; the first entry
	// is used for responses.
	ContentTypes() []string

	DecodeRequest(r io.Reader) (*Request, error)
	EncodeResponse(w io.Writer, resp *Response) error

	EncodeRequest(w io.Writer, req *Request) error
	DecodeResponse(r io.Reader) (*Response, error)
}

// Normalize converts encoder-friendly values into the canonical decoded
// forms, so that results round-trip identically through any codec:
// all signed integer types become int, float32 becomes float64,
// map[string]string widens to map[string]any, []string to []any.
func Normalize(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int, float64, string, []byte, time.Time:
		return x, nil
	case int8:
		return int(x), nil
	case int16:
		return int(x), nil
	case int32:
		return int(x), nil
	case int64:
		return int(x), nil
	case uint:
		if uint64(x) > math.MaxInt64 {
			return nil, fmt.Errorf("rpc: uint value %d overflows int", x)
		}
		return int(x), nil
	case uint8:
		return int(x), nil
	case uint16:
		return int(x), nil
	case uint32:
		return int(x), nil
	case uint64:
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("rpc: uint64 value %d overflows int", x)
		}
		return int(x), nil
	case float32:
		return float64(x), nil
	case []any:
		// Fast path: an array whose elements are all already canonical
		// scalars is returned as-is, with no copy. Dispatch hands cached
		// results (e.g. the system.list_methods name list) through here
		// once per request, so the copy would be pure allocation churn.
		for i, e := range x {
			switch e.(type) {
			case nil, bool, int, float64, string:
				continue
			}
			out := make([]any, len(x))
			copy(out, x[:i])
			for j := i; j < len(x); j++ {
				n, err := Normalize(x[j])
				if err != nil {
					return nil, err
				}
				out[j] = n
			}
			return out, nil
		}
		return x, nil
	case []string:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case []int:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case []float64:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	case map[string]string:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = e
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rpc: unsupported value type %T", v)
	}
}

// As is the one rule that turns a decoded value into a Go type T. The
// server's typed parameters and the client's typed results both read
// through it, so a value means the same thing on either side of the wire:
//
//	T               accepted decoded values
//	int             int, int64, integral float64 (JSON cannot tell 3.0 from 3)
//	bool            bool, exact 0 or 1 as int or float64
//	[]byte          []byte (base64), string
//	[]string        []any whose every element is a string
//	any             any value, nil included
//	anything else   exactly T (string, []any, map[string]any, time.Time)
//
// A refused value comes back as a *TypeError.
func As[T any](v any) (T, error) {
	var out T
	ok := true
	switch p := any(&out).(type) {
	case *int:
		switch n := v.(type) {
		case int:
			*p = n
		case int64:
			*p = int(n)
		case float64:
			*p, ok = int(n), n == float64(int(n))
		default:
			ok = false
		}
	case *bool:
		switch b := v.(type) {
		case bool:
			*p = b
		case int:
			*p, ok = b == 1, b == 0 || b == 1
		case float64:
			*p, ok = b == 1, b == 0 || b == 1
		default:
			ok = false
		}
	case *[]byte:
		switch b := v.(type) {
		case []byte:
			*p = b
		case string:
			*p = []byte(b)
		default:
			ok = false
		}
	case *[]string:
		arr, isArr := v.([]any)
		if !isArr {
			return out, &TypeError{Want: "array", Got: v, Index: -1}
		}
		strs := make([]string, len(arr))
		for i, e := range arr {
			s, isStr := e.(string)
			if !isStr {
				return out, &TypeError{Want: "string", Got: e, Index: i}
			}
			strs[i] = s
		}
		*p = strs
	case *any:
		*p = v
	default:
		out, ok = v.(T)
	}
	if !ok {
		var zero T
		return zero, &TypeError{Want: wantName(zero), Got: v, Index: -1}
	}
	return out, nil
}

// CoerceInt is As[int] reporting success as a bool.
func CoerceInt(v any) (int, bool) {
	n, err := As[int](v)
	return n, err == nil
}

// TypeError is a value As refused: the value itself when Index is -1,
// or element Index of an array.
type TypeError struct {
	Want  string // "string", "int", "bool", "bytes", "array", "struct", ...
	Got   any
	Index int
}

func (e *TypeError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("element %d: want %s, got %T", e.Index, e.Want, e.Got)
	}
	return fmt.Sprintf("want %s, got %T", e.Want, e.Got)
}

// wantName names a Go type the way parameter faults and client errors
// have always spelled it.
func wantName(z any) string {
	switch z.(type) {
	case []byte:
		return "bytes"
	case []any, []string:
		return "array"
	case map[string]any:
		return "struct"
	}
	return fmt.Sprintf("%T", z)
}

// NormalizeParams normalizes every parameter in place-compatible fashion.
func NormalizeParams(params []any) ([]any, error) {
	out := make([]any, len(params))
	for i, p := range params {
		n, err := Normalize(p)
		if err != nil {
			return nil, fmt.Errorf("rpc: param %d: %w", i, err)
		}
		out[i] = n
	}
	return out, nil
}

// Equal compares two normalized values for semantic equality; used by
// cross-codec round-trip tests and by callers comparing results.
func Equal(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int:
		y, ok := b.(int)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !Equal(v, w) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
