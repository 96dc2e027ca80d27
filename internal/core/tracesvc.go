package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// This file exposes the flight recorder: the trace.* RPC service (gated
// by the module's default admins-group ACL), the GET /debug/traces/<id>
// JSON endpoint, and the federated trace assembly that stitches a
// forwarded job's spans from origin and executing peers into one tree.

// traceService serves trace.get and trace.search over the span store.
type traceService struct{ s *Server }

func (traceService) Name() string { return "trace" }

func (sv traceService) Methods() []Method {
	return []Method{
		{
			// Hand-written: two signatures, with and without local_only.
			Name: "trace.get",
			Help: "Return the stored span tree of one trace. Unless the optional " +
				"local_only flag is true, the server fans out to the peers the " +
				"trace was forwarded to and merges their spans into one tree.",
			Signature: []string{"struct string", "struct string boolean"},
			Handler:   sv.get,
		},
		{
			// Hand-written: the optional filter is a struct.
			Name: "trace.search",
			Help: "List sampled traces, newest first. Optional filter struct: " +
				"method, server, min_ms (int), fault (bool), limit (int).",
			Signature: []string{"array", "array struct"},
			Handler:   sv.search,
		},
	}
}

// fetchTimeout bounds each peer fetch during federated assembly.
const traceFetchTimeout = 3 * time.Second

// traceFetchClient fetches peer /debug/traces documents; its own client
// so assembly timeouts never interfere with the default transport.
var traceFetchClient = &http.Client{Timeout: traceFetchTimeout}

func (sv traceService) get(ctx *Context, params Params) (any, error) {
	id, err := params.String(0)
	if err != nil {
		return nil, err
	}
	localOnly := false
	if len(params) > 1 {
		if localOnly, err = params.Bool(1); err != nil {
			return nil, err
		}
	}
	if !telemetry.ValidTraceID(id) {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "invalid trace id"}
	}
	doc := sv.s.assembleTrace(id, localOnly)
	if len(doc["spans"].([]any)) == 0 {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: fmt.Sprintf("trace %s not found in span store", id)}
	}
	return doc, nil
}

func (sv traceService) search(ctx *Context, params Params) (any, error) {
	var method, server string
	var minMS, limit int
	var faultOnly bool
	if len(params) > 0 {
		f, ok := params[0].(map[string]any)
		if !ok {
			return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "parameter 0: want filter struct"}
		}
		method, _ = f["method"].(string)
		server, _ = f["server"].(string)
		faultOnly, _ = f["fault"].(bool)
		switch n := f["min_ms"].(type) {
		case int:
			minMS = n
		case float64:
			minMS = int(n)
		}
		switch n := f["limit"].(type) {
		case int:
			limit = n
		case float64:
			limit = int(n)
		}
	}
	if limit <= 0 || limit > 500 {
		limit = 100
	}
	out := make([]any, 0, limit)
	for _, sum := range sv.s.spans.Summaries() {
		if method != "" && sum.RootMethod != method {
			continue
		}
		if faultOnly && sum.Fault == 0 {
			continue
		}
		if minMS > 0 && sum.Duration < time.Duration(minMS)*time.Millisecond {
			continue
		}
		if server != "" {
			found := false
			for _, sn := range sum.Servers {
				if sn == server {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		servers := make([]any, len(sum.Servers))
		for i, sn := range sum.Servers {
			servers[i] = sn
		}
		out = append(out, map[string]any{
			"trace":   sum.Trace,
			"method":  sum.RootMethod,
			"start":   sum.Start,
			"dur_ms":  float64(sum.Duration) / float64(time.Millisecond),
			"spans":   sum.Spans,
			"fault":   sum.Fault,
			"servers": servers,
			"sampled": true,
		})
		if len(out) >= limit {
			break
		}
	}
	return out, nil
}

// assembleTrace builds one merged trace document: the local spans plus —
// unless localOnly — the spans each linked peer recorded, fetched over
// the peers' /debug/traces endpoints with ?local=1 (one hop, no
// recursive fan-out). Peers that fail to answer are reported in the
// document's "errors" list rather than failing the whole assembly.
func (s *Server) assembleTrace(id string, localOnly bool) map[string]any {
	spans := make([]any, 0, 16)
	seenSpans := make(map[string]bool)
	servers := []any{}
	seenServers := make(map[string]bool)
	var errs []any

	addSpan := func(m map[string]any) {
		sid, _ := m["span"].(string)
		if sid != "" && seenSpans[sid] {
			return
		}
		seenSpans[sid] = true
		spans = append(spans, m)
		if sn, _ := m["server"].(string); sn != "" && !seenServers[sn] {
			seenServers[sn] = true
			servers = append(servers, sn)
		}
	}

	for _, sp := range s.spans.Trace(id) {
		addSpan(spanToMap(sp))
	}
	links := s.spans.Links(id)
	if !localOnly {
		for _, peer := range links {
			doc, err := fetchPeerTrace(peer, id)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", peer, err))
				continue
			}
			for _, raw := range doc.Spans {
				m := rawSpanToMap(raw, doc.Server)
				addSpan(m)
			}
		}
	}
	linksOut := make([]any, len(links))
	for i, l := range links {
		linksOut[i] = l
	}
	out := map[string]any{
		"trace":   id,
		"servers": servers,
		"spans":   spans,
		"links":   linksOut,
	}
	if len(errs) > 0 {
		out["errors"] = errs
	}
	return out
}

// debugTraceDoc is the JSON shape served by /debug/traces/<id> and
// consumed during federated assembly.
type debugTraceDoc struct {
	Server string            `json:"server"`
	Trace  string            `json:"trace"`
	Spans  []json.RawMessage `json:"spans"`
	Links  []string          `json:"links,omitempty"`
}

// fetchPeerTrace pulls one peer's local view of a trace. peer is the
// peer's RPC URL as recorded by the forward edge; the debug endpoint
// lives beside the RPC path.
func fetchPeerTrace(peer, id string) (*debugTraceDoc, error) {
	base := strings.TrimSuffix(strings.TrimSuffix(peer, "/"), "/rpc")
	url := base + "/debug/traces/" + id + "?local=1"
	resp, err := traceFetchClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer returned %s", resp.Status)
	}
	var doc debugTraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// spanToMap renders a span into the codec value model shared by the
// trace.get RPC and the /debug/traces JSON document.
func spanToMap(sp telemetry.Span) map[string]any {
	m := map[string]any{
		"trace":  sp.Trace,
		"span":   sp.Span,
		"method": sp.Method,
		"start":  sp.Start,
		// Unix milliseconds with a fractional part: XML-RPC datetimes
		// carry whole seconds only, too coarse to position waterfall
		// bars, and float64 millis stay exact to sub-microsecond here.
		"start_ms": float64(sp.Start.UnixNano()) / 1e6,
		"dur_ms":   float64(sp.Duration) / float64(time.Millisecond),
	}
	if sp.Parent != "" {
		m["parent"] = sp.Parent
	}
	if sp.DN != "" {
		m["dn"] = sp.DN
	}
	if sp.Peer != "" {
		m["peer"] = sp.Peer
	}
	if sp.Server != "" {
		m["server"] = sp.Server
	}
	if sp.Fault != 0 {
		m["fault"] = sp.Fault
	}
	if sp.Depth != 0 {
		m["depth"] = sp.Depth
	}
	return m
}

// rawSpanToMap decodes one peer span (telemetry.Span JSON) into the
// value-model map, stamping the peer's server name when the span lacks
// one.
func rawSpanToMap(raw json.RawMessage, server string) map[string]any {
	var sp telemetry.Span
	if err := json.Unmarshal(raw, &sp); err != nil {
		return map[string]any{"error": err.Error(), "server": server}
	}
	if sp.Server == "" {
		sp.Server = server
	}
	return spanToMap(sp)
}

// handleDebugTrace serves GET /debug/traces/<id>: the stored spans of
// one trace as JSON. With ?local=1 only this server's spans are
// returned (the form peers use during assembly, terminating the
// fan-out at one hop); otherwise the response is the fully merged
// federated document.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "trace endpoint accepts GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || !telemetry.ValidTraceID(id) {
		http.Error(w, "usage: GET /debug/traces/<trace-id>", http.StatusBadRequest)
		return
	}
	localOnly := r.URL.Query().Get("local") != ""

	// The raw local form carries telemetry.Span JSON directly — the shape
	// fetchPeerTrace consumes.
	if localOnly {
		spans := s.spans.Trace(id)
		raws := make([]json.RawMessage, 0, len(spans))
		for _, sp := range spans {
			if sp.Server == "" {
				sp.Server = s.cfg.ServerName
			}
			b, err := json.Marshal(sp)
			if err != nil {
				continue
			}
			raws = append(raws, b)
		}
		writeJSON(w, debugTraceDoc{
			Server: s.cfg.ServerName,
			Trace:  id,
			Spans:  raws,
			Links:  s.spans.Links(id),
		})
		return
	}
	writeJSON(w, s.assembleTrace(id, false))
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
