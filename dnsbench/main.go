// Command dnsbench is the repository's end-to-end benchmark. It starts
// the real netserve.Server in-process (and, for churn, the ctlplane HTTP
// API and propagate.Puller machines), drives it over loopback UDP and HTTP
// with seeded inputs, checks every answer against its own zone model, and
// prints one JSON result line.
//
//	dnsbench --workload zipf-hit|nx-flood|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics: live counters read from
// the program's registries, and spans the driver records around its own
// calls into each layer during a replay of the workload's exact inputs.
// BENCHMARK.json at the repository root lists the metrics; METRICS.md in
// this directory maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procs is the benchmark's GOMAXPROCS: the width of the two-core hosts
// the benchmark is calibrated on. Server, generators and oracle share it.
const procs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	res     result
	info    map[string]any // printed on the line before the result
	spread  map[string][4]float64
	invalid string // set when the run must not be reported
}

// End-to-end and per-layer metrics, as BENCHMARK.json lists them.
var (
	e2eMetrics = []string{"setup_s", "capacity_qps", "cpu_us_per_answer", "lat_p50_us", "heap_mib"}

	layerMetrics = []string{
		"dnswire.parse_ns", "qod.check_ns", "nameserver.hotcache_lookup_ns", "flight.observe_ns",
		"zone.find_wire_ns", "zone.append_answer_ns",
		"filters.score_ns", "queue.admit_ns", "filters.ratelimit_over", "netserve.shed_frac",
		"nameserver.hotcache_hit_ratio", "netserve.view_served_frac", "udpbatch.batch_mean",
		"runtime.alloc_bytes_per_answer", "runtime.gc_cpu_frac",
		"netserve.residual_ns", "gen.late_p99_us", "trace.overhead_ns", "fail_frac", "lat_p90_us", "lat_p99_us",
		"ctlplane.decode_us", "ctlplane.plan_us", "ctlplane.apply_us", "zone.view_compile_us",
		"zone.shard_rebuilds_per_zone", "ctlplane.residual_us",
		"propagate.source_handle_us.catalog", "propagate.source_handle_us.ixfr", "propagate.source_handle_us.axfr",
		"propagate.cold_sync_s", "propagate.delta_frac", "propagate.cycles_per_change",
		"apply_visible_p50_ms", "apply_visible_p99_ms", "fleet_converge_p50_ms", "fleet_converge_p99_ms",
		"applies_per_s",
	}
)

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed invariant: the result is marked incorrect.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "dnsbench:", msg)
	r.info["errors"] = append(r.info["errors"].([]string), msg)
}

// note adds to the attempted and failed totals.
func (r *run) note(c counts) {
	r.res.Attempted += c.sent
	r.res.Failed += c.wrong + c.lost
	if c.wrong > 0 {
		r.fail("%d responses disagreed with the zone model", c.wrong)
	}
}

// spreadOf records the median and quartiles of repeated samples of one
// metric and returns the median.
func (r *run) spreadOf(name string, xs []float64) float64 {
	q := quartiles(xs)
	r.spread[name] = q
	return q[1]
}

// quartiles returns (q1, median, q3, n) by the method of Python's
// statistics.quantiles(xs, n=4), the default "exclusive" one.
func quartiles(xs []float64) [4]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [4]float64{}
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		if pos <= 1 {
			return s[0]
		}
		if pos >= float64(n) {
			return s[n-1]
		}
		i := int(pos)
		f := pos - float64(i)
		return s[i-1] + f*(s[i]-s[i-1])
	}
	if n == 1 {
		return [4]float64{s[0], s[0], s[0], 1}
	}
	return [4]float64{at(0.25), at(0.5), at(0.75), float64(n)}
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// selectMetrics keeps the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one. Every end-to-end metric must have
// been measured; a per-layer row the workload does not exercise reads 0
// and is listed as not applicable.
func (r *run) selectMetrics() error {
	names := e2eMetrics
	if r.trace {
		names = layerMetrics
	}
	all := r.res.Metrics
	r.res.Metrics = map[string]metric{}
	var na []string
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			if !r.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", n)
			}
			na = append(na, n)
			m = metric{Unit: unitOf[n]}
		}
		r.res.Metrics[n] = m
	}
	r.info["not_applicable"] = na
	if r.trace {
		// The end-to-end readings of the traced run, for comparison.
		e2e := map[string]float64{}
		for _, n := range e2eMetrics {
			e2e[n] = all[n].Value
		}
		r.info["untraced_live"] = e2e
	}
	return nil
}

// unitOf gives the unit of per-layer rows a workload may leave unset.
var unitOf = map[string]string{
	"filters.score_ns": "ns", "queue.admit_ns": "ns",
	"ctlplane.decode_us": "us", "ctlplane.plan_us": "us", "ctlplane.apply_us": "us", "zone.view_compile_us": "us",
	"zone.shard_rebuilds_per_zone": "count", "ctlplane.residual_us": "us",
	"propagate.source_handle_us.catalog": "us", "propagate.source_handle_us.ixfr": "us",
	"propagate.source_handle_us.axfr": "us", "propagate.cold_sync_s": "s", "propagate.delta_frac": "ratio",
	"propagate.cycles_per_change": "count",
	"apply_visible_p50_ms":        "ms", "apply_visible_p99_ms": "ms", "fleet_converge_p50_ms": "ms",
	"fleet_converge_p99_ms": "ms", "applies_per_s": "1/s",
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMiB forces a collection and returns the live heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// driverHeap is the live heap the driver itself holds: what was live
// before the first set-up (zone model, corpus) plus what its lanes took.
type driverHeap struct{ base, lanes float64 }

// beforeLanes and afterLanes bracket the creation of a run's lanes.
func (h *driverHeap) beforeLanes() { h.lanes = -heapMiB() }
func (h *driverHeap) afterLanes()  { h.lanes += heapMiB() }

// setHeap reports heap_mib, the live heap after a forced collection at
// the end of the run less the driver's fixed share. The oracles' answer
// memos grow during the run and stay in the figure; info gives their size.
func (r *run) setHeap(h *driverHeap, orcs ...*oracle) {
	var memo int64
	for _, o := range orcs {
		memo += o.bytes
	}
	r.info["driver_heap_mib"] = map[string]float64{"base": h.base, "lanes": h.lanes, "oracle_memo": float64(memo) / (1 << 20)}
	r.set("heap_mib", heapMiB()-h.base-h.lanes, "MiB")
}

func main() {
	workload := flag.String("workload", "", "zipf-hit, nx-flood or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	r := &run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		res:    result{Correct: true, Metrics: map[string]metric{}},
		info:   map[string]any{"errors": []string{}},
		spread: map[string][4]float64{}}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "dnsbench: --seconds must be at least 1")
		os.Exit(2)
	}
	ref0 := hostRefMs()
	total0, steal0 := cpuJiffies()
	var err error
	switch *workload {
	case "zipf-hit":
		err = runZipfHit(r)
	case "nx-flood":
		err = runNXFlood(r)
	case "churn":
		err = runChurn(r)
	default:
		fmt.Fprintf(os.Stderr, "dnsbench: unknown --workload %q (want zipf-hit, nx-flood or churn)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsbench:", err)
		os.Exit(1)
	}
	if r.invalid != "" {
		_ = json.NewEncoder(os.Stderr).Encode(map[string]any{"info": r.info, "spread": r.spread})
		fmt.Fprintln(os.Stderr, "dnsbench: run invalid, not reported:", r.invalid)
		os.Exit(3)
	}
	if err := r.selectMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsbench:", err)
		os.Exit(1)
	}
	if r.res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "dnsbench: nothing was attempted")
		os.Exit(1)
	}
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "dnsbench: metric %s is not a number\n", name)
			os.Exit(1)
		}
	}
	total1, steal1 := cpuJiffies()
	r.info["host_steal_frac"] = ratio(steal1-steal0, total1-total0)
	r.info["host_ref_ms"] = []float64{ref0, hostRefMs()}
	r.info["host"] = fingerprint()
	r.info["workload"] = *workload
	r.info["seed"] = *seed
	r.info["trace"] = r.trace
	r.info["spread"] = r.spread
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": r.info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(r.res); err != nil {
		os.Exit(1)
	}
}
