// Command perfbench is the repository's end-to-end benchmark. It drives the
// scheme-switching bootstrap library (internal/core), the distributed
// bootstrap (internal/cluster) and the heapd serving stack (internal/serve)
// from outside, checks every output, and prints one JSON result line.
//
//	perfbench --workload boot --seed 1 --seconds 20 --trace 0
//
// Workloads: boot, boot-cluster, serve-steady, serve-churn. With --trace 0
// the result carries the end-to-end metrics, measured with no recorder
// installed; with --trace 1 it carries the per-layer metrics of a separate
// traced run. The last line of standard output is the result object; the
// lines before it are a human-readable summary (host facts, seed, every
// metric with its unit and sample count).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"heap/internal/ring"
)

// processStart anchors the first set-up measurement: setup_s counts from
// process start to the first timed operation.
var processStart = time.Now()

// options is one run's configuration, taken from the command line.
type options struct {
	seed   uint64
	window time.Duration // how long the measured section runs
	trace  bool
}

// metric is one reported figure. n is the sample count behind it; it is
// printed in the summary, not in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report is what a workload returns: the metrics plus the operation ledger.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string // output-check violations, printed to stderr
	notes     []string // extra summary lines
}

func newReport() *report {
	return &report{correct: true, metrics: make(map[string]metric)}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// fail records an output-check violation; any violation makes the run
// incorrect.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	"core.prepare_ms": "ms", "core.blindrotate_ms": "ms", "core.finish_ms": "ms",
	"core.repack_ms": "ms", "core.trace_ms": "ms", "core.unexplained_ms": "ms",
	"tfhe.rotate_ms": "ms", "tfhe.batch_ms": "ms", "tfhe.brk_bytes_per_rot": "bytes",
	"rlwe.extprod_ms": "ms", "rlwe.extprod_count": "count", "rlwe.keyswitch_count": "count",
	"rlwe.merge_count": "count", "rlwe.extprod_explained": "ratio",
	"ring.ntt_us": "us", "ring.intt_us": "us", "ring.mac_us": "us", "ring.ntt_count": "count",
	"rns.extend_us": "us", "rns.moddown_us": "us",
	"serve.service_p50_ms": "ms", "serve.service_p95_ms": "ms", "serve.client_wait_p50_ms": "ms",
	"serve.overhead_ms": "ms", "serve.jobs_per_batch": "jobs", "serve.queue_depth_max": "jobs",
	"serve.rejected": "jobs", "serve.expired": "jobs", "serve.failed": "jobs",
	"serve.keys_evicted": "keys", "serve.key_loads": "keys", "serve.key_load_ms": "ms",
	"cluster.bytes_framed": "bytes", "cluster.netsend_ms": "ms", "cluster.netrecv_ms": "ms",
	"cluster.remote_share": "fraction", "cluster.retries": "count",
	"obs.overhead_frac": "fraction", "load.late_p99_ms": "ms",
}

type workloadFunc func(o options) (*report, error)

var workloads = map[string]workloadFunc{
	"boot":         runBoot,
	"boot-cluster": runBootCluster,
	"serve-steady": func(o options) (*report, error) { return runServe(o, steadyShape()) },
	"serve-churn":  func(o options) (*report, error) { return runServe(o, churnShape()) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: boot, boot-cluster, serve-steady or serve-churn")
	seed := fs.Uint64("seed", 1, "seed for the workload's inputs (ciphertexts, schedule, payloads)")
	seconds := fs.Float64("seconds", 10, "length of the measured section in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rep, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.trace {
		for name, unit := range perLayerUnits {
			if _, ok := rep.metrics[name]; !ok {
				rep.set(name, 0, unit, 0) // a layer this workload does not run
			}
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	printSummary(stdout, *name, o, rep)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// hostFacts are the facts about the machine and build that change the
// numbers; every result is stamped with them.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"isa":         ring.SIMDLevel(),
		"heap_nosimd": os.Getenv("HEAP_NOSIMD") != "",
		"go":          runtime.Version(),
		"avx512ifma":  cpuHasAVX512IFMA(),
	}
}

func printSummary(w io.Writer, name string, o options, rep *report) {
	stamp, _ := json.Marshal(map[string]any{
		"workload": name, "seed": o.seed, "seconds": o.window.Seconds(),
		"trace": o.trace, "host": hostFacts(),
	})
	fmt.Fprintf(w, "run %s\n", stamp)
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %-9s n=%d\n", k, m.Value, m.Unit, m.n)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", rep.correct, rep.attempted, rep.failed)
}

// median returns the middle of xs (the mean of the two middles for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of the raw
// samples xs; xs is sorted in place. For fewer than 1/(1−q) samples this is
// the maximum.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// tailMinSamples is the sample count from which the tail is the p95: with
// 200 samples, ten lie beyond it.
const tailMinSamples = 200

// tail is the p95 of the raw latencies when there are enough of them for
// ten to lie beyond it, and the median otherwise: a bootstrap run holds
// about ten bootstraps, too few for any tail percentile.
func tail(lat []float64) float64 {
	if len(lat) < tailMinSamples {
		return median(lat)
	}
	return percentile(lat, 0.95)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// precisionBits is −log₂ of the largest slot error of got against want.
func precisionBits(got, want []complex128) (bits, maxErr float64) {
	for i := range want {
		d := got[i] - want[i]
		if e := math.Hypot(real(d), imag(d)); e > maxErr {
			maxErr = e
		}
	}
	return -math.Log2(maxErr), maxErr
}

// setupReps is how many times each workload builds its whole environment;
// setup_s is the median.
const setupReps = 3

// endToEnd fills the metrics every workload reports with tracing off.
func (r *report) endToEnd(setups, lat []float64, good int, window time.Duration, attempted int, okCount int, precision float64) {
	if len(lat) <= 64 {
		r.notes = append(r.notes, fmt.Sprintf("latency samples (ms, in run order): %.1f", lat))
	}
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("latency_p50_ms", median(lat), "ms", len(lat))
	r.set("latency_tail_ms", tail(lat), "ms", len(lat))
	r.set("goodput_per_s", float64(good)/window.Seconds(), "1/s", good)
	r.set("ok_frac", float64(okCount)/float64(attempted), "fraction", attempted)
	r.set("precision_bits", precision, "bits", 1)
	r.set("peak_rss_mb", peakRSSMB(), "MiB", 1)
}
