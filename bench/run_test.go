package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

var testLoad = loadParams{callers: 2, warmup: 50 * time.Millisecond, window: 200 * time.Millisecond, slice: 50 * time.Millisecond}

// faulty is rpc-small aimed at the method the benchmark registers to
// fault every second call.
var faulty = &workload{
	name: "faulty", why: "test only", codec: "xmlrpc", tracedOps: 20,
	calls: func(*fixture, *caller) func() call {
		ok := call{method: "system.echo", params: []any{"hello"}, check: wantEqual("hello")}
		bad := call{method: "benchsvc.fault", check: wantEqual(nil)}
		n := 0
		return func() call {
			if n++; n > 1 && n%2 == 0 {
				return bad
			}
			return ok
		}
	},
}

// TestFailuresAreCounted points a workload at a faulting method: failed
// operations count against attempted, give no latency sample, and make
// the runner exit non-zero.
func TestFailuresAreCounted(t *testing.T) {
	res, m, err := runEndToEnd(faulty, 1, testLoad)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.failRatio() < 0.4 || res.failRatio() > 0.6 {
		t.Errorf("%d of %d operations failed, want about half", res.failed, res.attempted)
	}
	if n := int64(res.window().n); n != res.attempted-res.failed {
		t.Errorf("%d latency samples for %d verified operations", n, res.attempted-res.failed)
	}
	var inSlices int64
	for _, s := range res.slices {
		inSlices += s.ok
	}
	if inSlices > res.attempted-res.failed {
		t.Errorf("slices count %d verified operations of %d", inSlices, res.attempted-res.failed)
	}
	if res.firstErr == nil || !strings.Contains(res.firstErr.Error(), "always faults") {
		t.Errorf("first error is %v", res.firstErr)
	}
	if m["ops_per_s"] <= 0 {
		t.Errorf("ops_per_s is %v", m["ops_per_s"])
	}

	var out bytes.Buffer
	quick := defaults
	quick.warmup = testLoad.warmup
	code := run(quick, []string{"-workload", "faulty", "-seconds", "0.2"}, []*workload{faulty}, &out)
	if code != 1 {
		t.Errorf("runner exited %d on a workload with failing operations, want 1", code)
	}
	var got result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if got.Correct || got.Failed == 0 || got.Attempted < got.Failed {
		t.Errorf("result says correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
}

// TestBadUsageExitsTwo covers the combinations the runner refuses
// before it builds anything.
func TestBadUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-agree", "3", "-trace", "1"},
		{"-callers", "8"},
		{"-callers", "0"},
		{"-seconds", "0"},
		{"-workload", "no-such"},
		{"-agree", "1"},
		{"stray"},
	} {
		if code := run(defaults, args, workloads, io.Discard); code != 2 {
			t.Errorf("run %v exited %d, want 2", args, code)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric is the smoke run: each workload
// with a 200 ms window and 20 traced operations. It asserts no timing,
// only that every declared name comes out finite and nothing fails.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := &options{seed: 1, seconds: 0.2, warmup: 50 * time.Millisecond, callers: 2,
				tracedOps: 20, outDir: t.TempDir(), budget: time.Millisecond}
			for o.trace = 0; o.trace <= 1; o.trace++ {
				res, err := runOnce(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d", o.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(res.order) {
					t.Errorf("trace %d: %d metrics for %d names", o.trace, len(res.Metrics), len(res.order))
				}
				// Counts per operation repeat exactly: one dispatch per call,
				// and the batch plus its 64 sub-calls on portal-multicall.
				want := map[string]float64{"rpc-small": 1, "portal-multicall": 1 + mixTotal}[w.name]
				if got := res.Metrics["core.requests_per_op"].Value; o.trace == 1 && want != 0 && got != want {
					t.Errorf("core.requests_per_op = %v, want %v", got, want)
				}
				for _, m := range res.order {
					v, ok := res.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 || v.Unit != m.Unit {
						t.Errorf("trace %d: %s = %+v", o.trace, m.Name, v)
					}
				}
			}
		})
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	var exact []float64
	g := newGen(1, 0)
	for i := 0; i < 20000; i++ {
		d := time.Duration(40+g.r.ExpFloat64()*25) * time.Microsecond
		h.record(d)
		exact = append(exact, ms(d))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := h.quantile(q), quantile(exact, q)
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%v = %v, exact %v", q, got, want)
		}
	}
	if !math.IsNaN(new(histogram).quantile(0.5)) {
		t.Error("an empty histogram has a median")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles are %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4)
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles are %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
