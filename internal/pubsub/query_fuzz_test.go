package pubsub

import (
	"slices"
	"strings"
	"testing"
)

// fuzzEvents is the fixed event set every accepted query is matched
// against, beside the probe events built from the query's own terms.
var fuzzEvents = []*Event{
	{Type: "job.state", Tags: map[string]string{"job_id": "j-1", "state": "done", "owner": "/O=x/OU=People/CN=Joe User"}},
	{Type: "job.artifact", Tags: map[string]string{"service": "job"}},
	{Type: "message.new", Tags: map[string]string{"service": "message", "to": "/O=x/CN=Me"}},
	{Type: "system.telemetry"},
	{Type: TypeLagged, Data: map[string]any{"reconnected": true}},
	{Type: "job"},
	{Type: ".", Tags: map[string]string{"": ""}},
	{Type: "", Tags: map[string]string{"service": ""}},
	{Type: "a.b.c", Tags: map[string]string{"service": "*"}},
}

// FuzzParseQuery feeds /ws subscribe queries to the parser. It must
// never panic; an accepted query's Match must never panic; and Modules,
// which scopes non-admin subscriptions, may only name modules a type= or
// service= term pins: every matched event is of a named module or
// carries a named service tag.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		mods := q.Modules()
		for _, m := range mods {
			if m == "" || strings.Contains(m, "*") || !strings.Contains(q.String(), m) {
				t.Fatalf("%q: Modules() = %q names %q, which no term pins", s, mods, m)
			}
		}
		// Probe events: one per type pattern, carrying every key's first
		// value, wildcards taken literally as prefixes.
		tags := map[string]string{}
		for k, vs := range q.tags {
			tags[k] = strings.TrimSuffix(vs[0], "*")
		}
		events := slices.Clone(fuzzEvents)
		for _, typ := range append(slices.Clone(q.types), "") {
			events = append(events, &Event{Type: strings.TrimSuffix(typ, "*"), Tags: tags})
		}
		for _, ev := range events {
			if !q.Match(ev) || ev.Type == TypeLagged || len(mods) == 0 {
				continue
			}
			module, _, _ := strings.Cut(ev.Type, ".")
			if !slices.Contains(mods, module) && !slices.Contains(mods, ev.Tags["service"]) {
				t.Fatalf("%q matches %+v, outside its modules %q", s, ev, mods)
			}
		}
	})
}
