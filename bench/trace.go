package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// rootSpan is the name of the span around the real client operation;
// every other span of the operation descends from it.
const rootSpan = "op"

// span is one timed interval of one traced operation. The root is the
// real call through the client; every other span is a direct call into
// one layer's public function on that operation's exact bytes, made
// after the root returned, and names the span it is a part of. Spans of
// one operation share op_id; names are unique within an operation.
type span struct {
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until it ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(op int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, OpID: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// timed records a span around f.
func (t *tracer) timed(op int, name, parent string, f func()) {
	start := time.Now()
	f()
	t.record(op, name, parent, start, time.Now())
}

// layerTimes are one span name's per-operation durations and self
// times in microseconds. Replayed children run after their parent, not
// inside it, so a span's self time is its duration minus the durations
// of its direct children, floored at zero; overrun is how much the
// children exceeded the parent where they did.
type layerTimes struct {
	name           string
	duration, self []float64
	overrun        float64
}

func (t *tracer) layers() []*layerTimes {
	type key struct {
		op   int
		name string
	}
	children := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.OpID, s.Parent}] += s.End - s.Start
		}
	}
	byName := map[string]*layerTimes{}
	var out []*layerTimes
	for _, s := range t.spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerTimes{name: s.Name}
			byName[s.Name] = l
			out = append(out, l)
		}
		dur := s.End - s.Start
		self := dur - children[key{s.OpID, s.Name}]
		if self < 0 {
			l.overrun += float64(-self) / 1e3
			self = 0
		}
		l.duration = append(l.duration, float64(dur)/1e3)
		l.self = append(l.self, float64(self)/1e3)
	}
	return out
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// layerTable prints each layer's median duration and self time and
// checks that the self times account for the root span: their medians
// must sum to within 10% of the root median, or the table says what is
// unaccounted.
func layerTable(layers []*layerTimes) []string {
	var root *layerTimes
	for _, l := range layers {
		if l.name == rootSpan {
			root = l
		}
	}
	if root == nil || len(root.duration) == 0 {
		return []string{"  no operation was traced"}
	}
	rootMedian := median(root.duration)
	// A span absent from some operations (a replay only some calls allow)
	// weighs in by the share of operations that have it.
	weight := func(l *layerTimes) float64 { return float64(len(l.self)) / float64(len(root.self)) }
	rows := append([]*layerTimes(nil), layers...)
	sort.SliceStable(rows, func(i, j int) bool {
		return median(rows[i].self)*weight(rows[i]) > median(rows[j].self)*weight(rows[j])
	})
	lines := []string{fmt.Sprintf("  %-28s %6s %12s %12s %7s", "span", "ops", "median_us", "self_us", "share")}
	var sum, sumMean, overrun float64
	for _, l := range rows {
		self := median(l.self) * weight(l)
		sum += self
		sumMean += mean(l.self) * weight(l)
		overrun += l.overrun / float64(len(root.self))
		lines = append(lines, fmt.Sprintf("  %-28s %6d %12.2f %12.2f %6.1f%%", l.name, len(l.self),
			median(l.duration), self, 100*self/rootMedian))
	}
	lines = append(lines, fmt.Sprintf("  self times sum to %.2f us, %.1f%% of the root median %.2f us", sum, 100*sum/rootMedian, rootMedian))
	if gap := sum/rootMedian - 1; gap < -0.10 || gap > 0.10 {
		lines = append(lines, fmt.Sprintf("  unaccounted: %.2f us. Medians do not add where operations differ or times are skewed: the mean self times sum to %.1f%% of the mean root %.2f us; replays overran their parents by %.2f us per operation",
			rootMedian-sum, 100*sumMean/mean(root.duration), mean(root.duration), overrun))
	}
	return lines
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
