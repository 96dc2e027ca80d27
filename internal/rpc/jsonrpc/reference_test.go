package jsonrpc

// The encoding/json codec this package used before its one-pass decode
// and append encoder, kept unchanged as the fuzz oracle: both must
// accept and refuse the same documents, decode them to equal values and
// encode every value to the same bytes. Only the receiver (reference,
// not Codec) and the two envelope types are renamed, the codec keeping
// the names its parse-fault messages carry, and Name and ContentTypes
// are added so it is an rpc.Codec; wireError, normalizeID and the
// sentinel keys are the package's own, also unchanged.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"clarens/internal/rpc"
)

type reference struct{}

func (reference) Name() string           { return "jsonrpc" }
func (reference) ContentTypes() []string { return contentTypes }

func toJSONValue(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, string:
		return x, nil
	case int:
		return x, nil
	case float64:
		// JSON cannot distinguish 3.0 from 3; force a decimal point so the
		// decoder restores float64 rather than int.
		if x == math.Trunc(x) && !math.IsInf(x, 0) && !math.IsNaN(x) {
			return json.Number(strconv.FormatFloat(x, 'f', 1, 64)), nil
		}
		return x, nil
	case []byte:
		return map[string]any{base64Key: base64.StdEncoding.EncodeToString(x)}, nil
	case time.Time:
		return map[string]any{timeKey: x.UTC().Format(time.RFC3339Nano)}, nil
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			j, err := toJSONValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = j
		}
		return out, nil
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			j, err := toJSONValue(e)
			if err != nil {
				return nil, err
			}
			out[k] = j
		}
		return out, nil
	default:
		n, err := rpc.Normalize(v)
		if err != nil {
			return nil, fmt.Errorf("jsonrpc: %w", err)
		}
		return toJSONValue(n)
	}
}

func fromJSONValue(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, string:
		return x, nil
	case json.Number:
		// Integers decode to int; everything else to float64.
		if i, err := x.Int64(); err == nil && !bytes.ContainsAny([]byte(x.String()), ".eE") {
			return int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("jsonrpc: bad number %q", x.String())
		}
		return f, nil
	case float64:
		// Reached only when the decoder was not Number-configured.
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return int(x), nil
		}
		return x, nil
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			g, err := fromJSONValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
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
		out := make(map[string]any, len(x))
		for k, e := range x {
			g, err := fromJSONValue(e)
			if err != nil {
				return nil, err
			}
			out[k] = g
		}
		return out, nil
	default:
		return nil, fmt.Errorf("jsonrpc: unexpected decoded type %T", v)
	}
}

type referenceRequest struct {
	Version string          `json:"jsonrpc,omitempty"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
	ID      any             `json:"id"`
}

type referenceResponse struct {
	Version string          `json:"jsonrpc,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *wireError      `json:"error,omitempty"`
	ID      any             `json:"id"`
}

// EncodeRequest implements rpc.Codec. Requests are emitted in 2.0 framing.
func (reference) EncodeRequest(w io.Writer, req *rpc.Request) error {
	params := make([]any, len(req.Params))
	for i, p := range req.Params {
		jp, err := toJSONValue(p)
		if err != nil {
			return err
		}
		params[i] = jp
	}
	rawParams, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("jsonrpc: marshal params: %w", err)
	}
	id := req.ID
	if id == nil {
		id = 1
	}
	return json.NewEncoder(w).Encode(referenceRequest{
		Version: "2.0", Method: req.Method, Params: rawParams, ID: id,
	})
}

// DecodeRequest implements rpc.Codec.
func (reference) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var wire referenceRequest
	if err := dec.Decode(&wire); err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	if wire.Method == "" {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidRequest, Message: "missing method"}
	}
	req := &rpc.Request{Method: wire.Method, ID: normalizeID(wire.ID)}
	if len(wire.Params) > 0 {
		var rawList []json.RawMessage
		if err := json.Unmarshal(wire.Params, &rawList); err != nil {
			return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "params must be an array"}
		}
		for i, raw := range rawList {
			pd := json.NewDecoder(bytes.NewReader(raw))
			pd.UseNumber()
			var v any
			if err := pd.Decode(&v); err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: err.Error()}
			}
			g, err := fromJSONValue(v)
			if err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("param %d: %v", i, err)}
			}
			req.Params = append(req.Params, g)
		}
	}
	return req, nil
}

// EncodeResponse implements rpc.Codec.
func (reference) EncodeResponse(w io.Writer, resp *rpc.Response) error {
	wire := referenceResponse{Version: "2.0", ID: resp.ID}
	if resp.Fault != nil {
		wire.Error = &wireError{Code: resp.Fault.Code, Message: resp.Fault.Message}
	} else {
		jv, err := toJSONValue(resp.Result)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(jv)
		if err != nil {
			return fmt.Errorf("jsonrpc: marshal result: %w", err)
		}
		wire.Result = raw
	}
	return json.NewEncoder(w).Encode(wire)
}

// DecodeResponse implements rpc.Codec.
func (reference) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var wire referenceResponse
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("jsonrpc: decode response: %w", err)
	}
	resp := &rpc.Response{ID: normalizeID(wire.ID)}
	if wire.Error != nil {
		resp.Fault = &rpc.Fault{Code: wire.Error.Code, Message: wire.Error.Message}
		return resp, nil
	}
	if len(wire.Result) > 0 {
		rd := json.NewDecoder(bytes.NewReader(wire.Result))
		rd.UseNumber()
		var v any
		if err := rd.Decode(&v); err != nil {
			return nil, fmt.Errorf("jsonrpc: decode result: %w", err)
		}
		g, err := fromJSONValue(v)
		if err != nil {
			return nil, err
		}
		resp.Result = g
	}
	return resp, nil
}

var _ rpc.Codec = reference{}
