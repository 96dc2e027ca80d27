// Command bench is the repository's one fixed benchmark: six named
// workloads, the end-to-end metrics a user of the system sees, and a
// per-layer ledger from a separate traced run. BENCHMARK.json at the
// repository root declares the names; README.md beside this file
// explains them.
//
// Each workload hosts its server in-process on 127.0.0.1:0 and drives
// it in a closed loop. Each run of a workload prints every metric by
// name with its unit and then, on a line of its own, the result object
// the driver's contract asks for. -workload runs one workload; without
// it every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// options are one invocation's settings. The flags set the first six;
// the rest are fixed, and only the package's own tests shorten them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	callers  int
	trace    int
	agree    int

	warmup    time.Duration // untimed closed-loop operations ahead of the window
	tracedOps int           // operations the traced run samples; 0 leaves the workload's own count
	budget    time.Duration // how long the traced run times each single layer function
	outDir    string        // where the traced run writes trace-<workload>.json
}

var defaults = options{warmup: 2 * time.Second, budget: 30 * time.Millisecond, outDir: "bench/out"}

func (o *options) load() loadParams {
	window := time.Duration(o.seconds * float64(time.Second))
	return loadParams{callers: o.callers, warmup: o.warmup, window: window, slice: min(time.Second, window/4)}
}

func main() { os.Exit(run(defaults, os.Args[1:], workloads, os.Stdout)) }

// run is the whole program over a table of workloads; it returns the
// exit code: 1 when a run failed or was not correct, 2 on bad usage.
func run(o options, args []string, table []*workload, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload in turn)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated payload, DN and call order")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of the timed window; the same on both sides of a comparison")
	fs.IntVar(&o.callers, "callers", min(runtime.NumCPU(), 2), "closed-loop callers, one connection each")
	fs.IntVar(&o.trace, "trace", 0, "1 makes the traced run and reports the per-layer metrics instead")
	fs.IntVar(&o.agree, "agree", 0, "run the set N times on each of two sides and check that the sides agree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0 || o.seconds <= 0:
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		return 2
	case o.callers < 1 || o.callers >= maxCallers:
		// The traced run's own caller takes the index after the load callers'.
		fmt.Fprintf(os.Stderr, "bench: -callers must be 1 to %d\n", maxCallers-1)
		return 2
	case o.agree > 0 && o.trace != 0:
		fmt.Fprintln(os.Stderr, "bench: -agree compares the end-to-end metrics; it cannot be combined with -trace")
		return 2
	}
	if o.workload != "" {
		var one []*workload
		for _, w := range table {
			if w.name == o.workload {
				one = append(one, w)
			}
		}
		if one == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		table = one
	}
	if o.agree > 0 {
		return runAgree(table, &o, out)
	}
	code := 0
	for _, w := range table {
		res, err := runOnce(w, &o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		res.print(out)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	samples  int      // latency samples behind p50_ms and p95_ms
	order    []metric // print order
	notes    []string
}

// runOnce runs the timed run or, with -trace 1, the traced run.
func runOnce(w *workload, o *options) (*result, error) {
	res := &result{workload: w.name, Metrics: map[string]value{}}
	var load *loadResult
	var values map[string]float64
	var err error
	if o.trace == 0 {
		res.order = endToEndMetrics
		load, values, err = runEndToEnd(w, o.seed, o.load())
	} else {
		res.order = perLayerMetrics
		load, values, res.notes, err = runLayers(w, o)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.samples = load.attempted, load.failed, load.window().n
	res.Correct = load.attempted > 0 && load.failRatio() <= maxFailRatio
	for _, m := range res.order {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%v)", w.name, m.Name, v)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// print writes the metrics by name with their units, then the contract's
// result object on a line of its own.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: %d operations attempted, %d failed (fail_ratio %.6f), %d latency samples\n",
		r.workload, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.samples)
	for _, m := range r.order {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // the result holds only finite numbers and strings
	}
	fmt.Fprintf(out, "%s\n", line)
}
