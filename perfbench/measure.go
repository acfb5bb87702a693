package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number. Samples is the count a percentile or
// median was taken over (0 for a single reading or a count).
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// check is one named output check: how many times it ran and how many of
// those failed. Failures carry a first-failure detail for the report.
type check struct {
	Name      string
	Attempted int
	Failed    int
	Detail    string
}

// result is everything one run reports.
type result struct {
	Workload string
	Seed     int64
	Traced   bool
	Metrics  []metric
	checks   map[string]*check
	order    []string
	// Requests counts HTTP requests made; RequestsFailed those whose
	// status was not the expected one. Both count as operations.
	Requests       int
	RequestsFailed int
	Digest         string
	// tracer holds the traced run's spans for the self-time table.
	tracer *tracer
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, checks: map[string]*check{}}
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

// expect records one attempt of the named check.
func (r *result) expect(name string, ok bool, format string, args ...any) {
	c := r.checks[name]
	if c == nil {
		c = &check{Name: name}
		r.checks[name] = c
		r.order = append(r.order, name)
	}
	c.Attempted++
	if !ok {
		c.Failed++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf(format, args...)
		}
	}
}

// Checks returns the checks in the order they were first recorded.
func (r *result) Checks() []check {
	out := make([]check, len(r.order))
	for i, name := range r.order {
		out[i] = *r.checks[name]
	}
	return out
}

// totals returns attempted and failed operations: HTTP requests plus every
// output check.
func (r *result) totals() (attempted, failed int) {
	attempted, failed = r.Requests, r.RequestsFailed
	for _, c := range r.Checks() {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// writeReport prints the human-readable report: every metric by name with
// its unit and sample count, every check, and the error rate.
func (r *result) writeReport(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d mode=%s gomaxprocs=%d\n", r.Workload, r.Seed, mode, runtime.GOMAXPROCS(0))
	for _, m := range r.Metrics {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, c := range r.Checks() {
		status := "ok"
		if c.Failed > 0 {
			status = "FAIL: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-28s %d/%d failed  %s\n", c.Name, c.Failed, c.Attempted, status)
	}
	attempted, failed := r.totals()
	fmt.Fprintf(w, "  %-34s %14.6g %-6s  (%d/%d operations, %d HTTP requests)\n", "error_rate", float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted, r.Requests)
	if r.Digest != "" {
		fmt.Fprintf(w, "  digest %s\n", r.Digest)
	}
	if r.tracer != nil {
		r.tracer.writeSelfTimes(w)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the median of an even count is the mean of the middle
// two). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blocks is how many consecutive blocks blockMedian cuts a series of
// repetitions into.
const blocks = 10

// blockMedian is the median over consecutive blocks of the mean of each
// block. A block's mean spreads the cost of the garbage collections the
// repetitions trigger over all of them, however few reps a collection
// falls in, and averages over the host's fast and slow stretches, where a
// median of single readings jumps between the two; the median over blocks
// drops a block that a burst of interference from outside the benchmark
// hit.
func blockMedian(xs []float64) float64 {
	k := min(blocks, len(xs))
	means := make([]float64, 0, k)
	for b := 0; b < k; b++ {
		lo, hi := len(xs)*b/k, len(xs)*(b+1)/k
		sum := 0.0
		for _, x := range xs[lo:hi] {
			sum += x
		}
		means = append(means, sum/float64(hi-lo))
	}
	return median(means)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runtimeSample is the Go runtime's cumulative counters at one instant.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

// liveHeapMB forces a collection and returns the heap the collector found
// live, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// addRuntime reports the runtime counters over a measured window that
// executed the given number of radio rounds.
func (r *result) addRuntime(before, after runtimeSample, rounds int) {
	n := float64(max(rounds, 1))
	r.add("runtime.alloc_bytes_per_round", "B", float64(after.allocBytes-before.allocBytes)/n, 0)
	r.add("runtime.allocs_per_round", "count", float64(after.allocObjects-before.allocObjects)/n, 0)
	r.add("runtime.gc_cpu_s", "s", after.gcCPU-before.gcCPU, 0)
	r.add("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles), 0)
}

// shortHex is the first n hex digits of a digest, for report lines.
func shortHex(b []byte, n int) string {
	return hex.EncodeToString(b)[:n]
}
