package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles are the three cut points Python's
// statistics.quantiles(v, n=4) gives, which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	cut := func(i int) float64 {
		j := min(max(i*(len(d)+1)/4, 1), len(d)-1)
		delta := float64(i*(len(d)+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAgree checks that two sets of runs of the same code agree within
// the benchmark's own bounds. It runs every workload n times on each of
// two sides, alternating sides, the i-th run of both on the same seed,
// and prints each side's median and quartiles per metric and workload.
// A pairing whose own spread between quartiles exceeds the metric's
// bound cannot show agreement and is printed as unresolved. The exit
// code is 1 if any two medians differ by more than the bound or a run
// was not correct.
func runAgree(run []*workload, o *options, out io.Writer) int {
	if o.agree < 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs at least 2 runs a side to have quartiles")
		return 2
	}
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	code := 0
	for i := 0; i < o.agree; i++ {
		for side := range sides {
			for _, w := range run {
				opts := *o
				opts.seed = o.seed + int64(i)
				res, err := runOnce(w, &opts)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: run %d of side %c was not correct\n", w.name, i+1, 'A'+side)
					code = 1
				}
				for name, v := range res.Metrics {
					k := key{w.name, name}
					sides[side][k] = append(sides[side][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: run %d/%d side %c %s done\n", i+1, o.agree, 'A'+side, w.name)
			}
		}
	}
	fmt.Fprintf(out, "%-17s %-14s %14s %26s %14s %26s %8s %6s  %s\n", "workload", "metric",
		"A.median", "A.quartiles", "B.median", "B.quartiles", "differ", "bound", "verdict")
	for _, w := range run {
		for _, m := range endToEndMetrics {
			k := key{w.name, m.Name}
			a1, a2, a3 := quartiles(sides[0][k])
			b1, b2, b3 := quartiles(sides[1][k])
			differ := math.Abs(b2-a2) / a2
			verdict := "ok"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case differ > m.Bound:
				verdict = "DIFFER"
				code = 1
			}
			fmt.Fprintf(out, "%-17s %-14s %14.4f %12.4f ..%12.4f %14.4f %12.4f ..%12.4f %7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, a2, a1, a3, b2, b1, b3, 100*differ, 100*m.Bound, verdict)
		}
	}
	return code
}
