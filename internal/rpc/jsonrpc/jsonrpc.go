// Package jsonrpc implements the JSON-RPC protocol used by Clarens for
// browser-based portal clients (paper §2: "Multiple protocols (XML-RPC,
// SOAP, Java RMI ..., JSON-RPC)"; §3: the portal's JavaScript issues web
// service calls, for which the JSON-RPC binding was designed).
//
// Both JSON-RPC 1.0 (as used by the metaparadigm jsonrpc library the paper
// cites) and JSON-RPC 2.0 framing are accepted; requests and responses are
// always written in 2.0 framing.
//
// Each direction makes one pass: one encoding/json decode converted in
// place, and an encoder appending the previous encoder's exact bytes.
// The accepted language and canonical form are the README's JSON-RPC
// contract.
package jsonrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"clarens/internal/rpc"
)

// Codec is the JSON-RPC implementation of rpc.Codec.
type Codec struct{}

// New returns the JSON-RPC codec.
func New() *Codec { return &Codec{} }

// Name implements rpc.Codec.
func (*Codec) Name() string { return "jsonrpc" }

// contentTypes is shared across calls: ContentTypes sits on the
// per-response hot path and must not allocate.
var contentTypes = []string{"application/json", "application/json-rpc", "text/json"}

// ContentTypes implements rpc.Codec. Callers must not modify the
// returned slice.
func (*Codec) ContentTypes() []string { return contentTypes }

// Wire sentinel objects for types JSON cannot represent natively. These
// follow the convention of tagging with a single reserved key.
const (
	base64Key = "__jsonclass_base64__"
	timeKey   = "__jsonclass_datetime__"
)

// encode runs body against w itself when w is a *bytes.Buffer (the
// server encodes responses into pooled buffers), else against a staging
// buffer written out whole. Either way w receives nothing if body fails.
func encode(w io.Writer, body func(*bytes.Buffer) error) error {
	b, direct := w.(*bytes.Buffer)
	if !direct {
		b = new(bytes.Buffer)
	}
	start := b.Len()
	if err := body(b); err != nil {
		b.Truncate(start)
		return err
	}
	b.WriteString("}\n")
	if direct {
		return nil
	}
	_, err := w.Write(b.Bytes())
	return err
}

// writeValue writes v as encoding/json wrote the tree the previous
// encoder built for it. The leaves whose form takes rules, non-integral
// doubles (the ES6 format) and strings that need escaping, are written by
// json.Marshal itself.
func writeValue(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case int:
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(x), 10))
	case float64:
		if x != math.Trunc(x) || math.IsInf(x, 0) {
			return marshal(b, x)
		}
		// JSON cannot tell 3.0 from 3: the point is what makes the decoder
		// restore a float64 rather than an int.
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), x, 'f', 1, 64))
	case string:
		writeString(b, x)
	case []byte:
		b.WriteString(`{"` + base64Key + `":"`)
		b.Write(base64.StdEncoding.AppendEncode(b.AvailableBuffer(), x))
		b.WriteString(`"}`)
	case time.Time:
		b.WriteString(`{"` + timeKey + `":"`)
		b.Write(x.UTC().AppendFormat(b.AvailableBuffer(), time.RFC3339Nano))
		b.WriteString(`"}`)
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case map[string]any:
		var small [8]string
		keys := small[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			writeString(b, k)
			b.WriteByte(':')
			if err := writeValue(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		n, err := rpc.Normalize(v)
		if err != nil {
			return fmt.Errorf("jsonrpc: %w", err)
		}
		return writeValue(b, n)
	}
	return nil
}

// writeString writes s quoted: as is when it holds only ASCII that
// encoding/json leaves unescaped, else as json.Marshal escapes it.
func writeString(b *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			b.Write(raw)
			return
		}
	}
	b.WriteByte('"')
	b.WriteString(s)
	b.WriteByte('"')
}

// marshal writes v as json.Marshal does: a leaf writeValue hands on, or
// an ID, which a server echoes as decoded (a json.Number normalizeID
// kept, an object) and so may be any JSON value.
func marshal(b *bytes.Buffer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jsonrpc: %w", err)
	}
	b.Write(raw)
	return nil
}

// EncodeRequest implements rpc.Codec. A request without an ID is sent
// with ID 1, as the portal page sends every call.
func (*Codec) EncodeRequest(w io.Writer, req *rpc.Request) error {
	return encode(w, func(b *bytes.Buffer) error {
		b.WriteString(`{"jsonrpc":"2.0","method":`)
		writeString(b, req.Method)
		b.WriteString(`,"params":`)
		if err := writeValue(b, req.Params); err != nil {
			return err
		}
		b.WriteString(`,"id":`)
		if req.ID == nil {
			return marshal(b, 1)
		}
		return marshal(b, req.ID)
	})
}

// EncodeResponse implements rpc.Codec.
func (*Codec) EncodeResponse(w io.Writer, resp *rpc.Response) error {
	return encode(w, func(b *bytes.Buffer) error {
		if f := resp.Fault; f != nil {
			b.WriteString(`{"jsonrpc":"2.0","error":{"code":`)
			b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(f.Code), 10))
			b.WriteString(`,"message":`)
			writeString(b, f.Message)
			b.WriteByte('}')
		} else {
			b.WriteString(`{"jsonrpc":"2.0","result":`)
			if err := writeValue(b, resp.Result); err != nil {
				return err
			}
		}
		b.WriteString(`,"id":`)
		return marshal(b, resp.ID)
	})
}

// wireRequest and wireResponse are the envelopes the one decode fills from the
// first JSON value of a body; nothing after it is read. Members match
// case-insensitively and a repeated member keeps its last value; one of
// the wrong type fails the decode, which is why Version is kept though
// never read. Params and Result are any so the whole document decodes
// before their shape is checked.
type wireRequest struct {
	Version string `json:"jsonrpc"`
	Method  string `json:"method"`
	Params  any    `json:"params"`
	ID      any    `json:"id"`
}

type wireResponse struct {
	Version string     `json:"jsonrpc"`
	Result  any        `json:"result"`
	Error   *wireError `json:"error"`
	ID      any        `json:"id"`
}

type wireError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// fromJSON converts a tree the decoder has just built to the value model
// in place: json.Number leaves become int or float64 and the sentinel
// objects []byte and time.Time. Every other node is kept as decoded.
func fromJSON(v any) (any, error) {
	switch x := v.(type) {
	case json.Number:
		return number(x)
	case []any:
		for i, e := range x {
			g, err := fromJSON(e)
			if err != nil {
				return nil, err
			}
			x[i] = g
		}
	case map[string]any:
		if len(x) == 1 {
			if s, ok := x[base64Key].(string); ok {
				data, err := base64.StdEncoding.DecodeString(s)
				if err != nil {
					return nil, fmt.Errorf("jsonrpc: bad base64 payload: %w", err)
				}
				return data, nil
			}
			if s, ok := x[timeKey].(string); ok {
				t, err := time.Parse(time.RFC3339Nano, s)
				if err != nil {
					return nil, fmt.Errorf("jsonrpc: bad datetime payload: %w", err)
				}
				return t.UTC(), nil
			}
		}
		for k, e := range x {
			switch e.(type) { // only these can change; a store costs a hash
			case json.Number, []any, map[string]any:
				g, err := fromJSON(e)
				if err != nil {
					return nil, err
				}
				x[k] = g
			}
		}
	}
	return v, nil
}

// number is the integer-versus-double rule: a literal without '.', 'e'
// or 'E' that fits 64 bits is an int, any other a float64, and one
// beyond float64's range an error.
func number(n json.Number) (any, error) {
	s := string(n)
	if !strings.ContainsAny(s, ".eE") {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return int(i), nil
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return nil, fmt.Errorf("jsonrpc: bad number %q", s)
	}
	return f, nil
}

// DecodeRequest implements rpc.Codec. A document encoding/json refuses,
// or whose members have the wrong types, is a CodeParse fault; one
// without a method CodeInvalidRequest; params that are not an array, or
// hold a bad number or sentinel, CodeInvalidParams.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var wire wireRequest
	if err := dec.Decode(&wire); err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	if wire.Method == "" {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidRequest, Message: "missing method"}
	}
	req := &rpc.Request{Method: wire.Method, ID: normalizeID(wire.ID)}
	switch params := wire.Params.(type) {
	case nil:
	case []any:
		for i, p := range params {
			g, err := fromJSON(p)
			if err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("param %d: %v", i, err)}
			}
			params[i] = g
		}
		if len(params) > 0 {
			req.Params = params
		}
	default:
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "params must be an array"}
	}
	return req, nil
}

// normalizeID converts json.Number IDs to int for stable comparison.
func normalizeID(id any) any {
	if n, ok := id.(json.Number); ok {
		if i, err := n.Int64(); err == nil {
			return int(i)
		}
		if f, err := n.Float64(); err == nil {
			return f
		}
	}
	return id
}

// DecodeResponse implements rpc.Codec. A malformed reply is a plain
// error, not a fault, so a client does not mistake it for the server's
// answer.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var wire wireResponse
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("jsonrpc: decode response: %w", err)
	}
	resp := &rpc.Response{ID: normalizeID(wire.ID)}
	if wire.Error != nil {
		resp.Fault = &rpc.Fault{Code: wire.Error.Code, Message: wire.Error.Message}
		return resp, nil
	}
	result, err := fromJSON(wire.Result)
	if err != nil {
		return nil, err
	}
	resp.Result = result
	return resp, nil
}

var _ rpc.Codec = (*Codec)(nil)
