package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadParams is the load model of a run, the same on both sides of any
// comparison.
type loadParams struct {
	callers int           // closed-loop callers, one connection each
	warmup  time.Duration // untimed operations ahead of the window
	window  time.Duration // the timed window
	slice   time.Duration // the window is measured in slices of this length
}

// histogram counts latencies in buckets 1% apart, from 1 µs to a
// minute. Its size is fixed: the benchmark shares a heap with the
// server it measures, and sample storage that grew with the run would
// grow the live heap, space the collector's cycles further apart and
// make the server faster the longer the window ran.
type histogram struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histBuckets = 1800 // 1 µs × 1.01^1800 is about a minute
	histRatio   = 1.01
)

var histScale = 1 / math.Log(histRatio)

func (h *histogram) record(d time.Duration) {
	i := int(math.Log(float64(d)/float64(time.Microsecond)) * histScale)
	h.counts[min(max(i, 0), histBuckets-1)]++
	h.n++
}

func (h *histogram) add(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the q-quantile in milliseconds, interpolated within its
// bucket; an empty histogram has none.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank, seen := q*float64(h.n), 0.0
	for i, c := range h.counts {
		if c > 0 && seen+float64(c) >= rank {
			lo := math.Pow(histRatio, float64(i))
			return lo * (1 + (histRatio-1)*(rank-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return math.NaN() // not reached: the counts sum to n
}

// sliceStat is what the sampler read at the end of one slice.
type sliceStat struct {
	dur       time.Duration
	ok        int64         // verified operations completed in the slice
	attempted int64         // operations completed in the slice, failed ones included
	cpu       time.Duration // process user+system CPU spent in the slice
}

// loadResult is everything one closed-loop window measured. A failed
// operation contributes no latency sample.
type loadResult struct {
	attempted, failed int64
	total             int64 // operations completed at all: warm-up and discarded ones too
	firstErr          error
	latencies         []histogram // of verified operations, one per slice, by completion time
	slices            []sliceStat
	wall, cpu         time.Duration // of the whole window
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoad drives the callers in a closed loop through warm-up and the
// timed window. Operations are accounted to the window by completion
// time; those still in flight when it ends are finished and discarded.
func runLoad(callers []*caller, p loadParams) *loadResult {
	res := &loadResult{}
	var ok, attempted, total atomic.Int64
	var errOnce sync.Once
	nslices := int(p.window / p.slice) // the window is a whole number of slices
	began := time.Now()
	start := began.Add(p.warmup)
	end := start.Add(time.Duration(nslices) * p.slice)
	ctx, cancel := context.WithDeadline(context.Background(), end.Add(30*time.Second))
	defer cancel()

	perCaller := make([][]histogram, len(callers))
	for i := range perCaller {
		perCaller[i] = make([]histogram, nslices)
	}
	var wg sync.WaitGroup
	for i, cl := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				err := cl.do(ctx)
				t1 := time.Now()
				total.Add(1)
				if t1.Before(start) || !t1.Before(end) {
					continue
				}
				attempted.Add(1)
				if err != nil {
					errOnce.Do(func() { res.firstErr = err })
					continue
				}
				ok.Add(1)
				perCaller[i][t1.Sub(start)/p.slice].record(t1.Sub(t0))
			}
		}()
	}

	// The sampler reads the counters and the CPU clock together at each
	// slice boundary, so a slice's rate and cost come from one reading.
	time.Sleep(time.Until(start))
	lastT, lastOK, lastAtt, lastCPU := time.Now(), ok.Load(), attempted.Load(), cpuTime()
	firstT, firstCPU := lastT, lastCPU
	for n := 1; n <= nslices; n++ {
		time.Sleep(time.Until(start.Add(time.Duration(n) * p.slice)))
		t, o, a, c := time.Now(), ok.Load(), attempted.Load(), cpuTime()
		res.slices = append(res.slices, sliceStat{dur: t.Sub(lastT), ok: o - lastOK, attempted: a - lastAtt, cpu: c - lastCPU})
		lastT, lastOK, lastAtt, lastCPU = t, o, a, c
	}
	res.wall, res.cpu = lastT.Sub(firstT), lastCPU-firstCPU
	wg.Wait()

	res.attempted, res.total = attempted.Load(), total.Load()
	res.failed = res.attempted - ok.Load()
	res.latencies = make([]histogram, nslices)
	for _, hists := range perCaller {
		for n := range hists {
			res.latencies[n].add(&hists[n])
		}
	}
	return res
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between
// closest ranks; v is sorted in place. An empty v has no quantile.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliceMetrics are one slice's own rate, CPU cost per operation and
// latency percentiles.
type sliceMetrics struct{ rate, cost, p50, p95 float64 }

func (r *loadResult) perSlice() []sliceMetrics {
	out := make([]sliceMetrics, len(r.slices))
	for i, s := range r.slices {
		out[i] = sliceMetrics{
			rate: float64(s.ok) / s.dur.Seconds(),
			cost: us(s.cpu) / float64(s.attempted), // NaN in a slice that completed nothing
			p50:  r.latencies[i].quantile(0.5),
			p95:  r.latencies[i].quantile(0.95),
		}
	}
	return out
}

// endToEnd turns a window into the end-to-end metrics. Rate, tail and
// CPU cost are medians over the window's slices, so one stalled slice
// (a noisy neighbour, a long collection) does not move them.
func (r *loadResult) endToEnd() map[string]float64 {
	var rate, cost, tail []float64
	for _, s := range r.perSlice() {
		rate = append(rate, s.rate)
		if !math.IsNaN(s.cost) {
			cost = append(cost, s.cost)
		}
		if !math.IsNaN(s.p95) {
			tail = append(tail, s.p95)
		}
	}
	return map[string]float64{
		"ops_per_s":     median(rate),
		"p50_ms":        r.window().quantile(0.5),
		"p95_ms":        median(tail),
		"cpu_us_per_op": median(cost),
	}
}

// window is the latency histogram of the whole window.
func (r *loadResult) window() *histogram {
	var all histogram
	for i := range r.latencies {
		all.add(&r.latencies[i])
	}
	return &all
}

func (r *loadResult) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// setupReps is how many times a run sets the workload up. One set-up
// takes milliseconds and a single timing of it is noisy, so the run
// reports the median.
const setupReps = 9

// runEndToEnd is the timed run of one workload: set up, warm up,
// measure, verify, tear down. setup_s is one set-up: building the
// fixture (PKI, server start, fixture writes) and dialling the callers,
// through each caller's first verified operation. The warm-up has a
// fixed length and is no part of it, so setup_s moves when work moves
// into server start or first use.
func runEndToEnd(w *workload, seed int64, p loadParams) (*loadResult, map[string]float64, error) {
	var fx *fixture
	var callers []*caller
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if fx != nil {
			closeCallers(callers)
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = newFixture(w, seed, true); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if callers, err = fx.newCallers(p.callers); err != nil {
			fx.close()
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	defer closeCallers(callers)

	res := runLoad(callers, p)
	m := res.endToEnd()
	m["setup_s"] = median(setups)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %v\n", w.name, res.firstErr)
	}
	return res, m, nil
}
