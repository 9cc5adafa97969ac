// Command perfbench is NetLock's repository benchmark. It runs one of
// three closed-loop workloads against the real code paths — a UDP rack
// (rack-micro, rack-tpcc) or the embedded manager (embedded-tpcc) — checks
// every run's outputs, and prints every metric by name and unit, ending
// with one JSON line:
//
//	perfbench --workload rack-micro --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run splits --seconds into an untraced window and a traced one on a
// fresh system, and the JSON carries the per-layer metrics, the self time
// per layer along the acquire path, and the tracing overhead. See
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"netlock/internal/stats"
)

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	warmup   time.Duration // load before the window opens
	setups   int           // set-ups timed; setup_s is their median
	traceDir string
	commit   string
}

// metric is one reported number. Percentiles carry their sample count and
// how many attempts rank beyond them.
type metric struct {
	name  string
	unit  string
	value float64
	n     int64
	// beyond is the number of attempts ranked above a percentile; pct
	// marks percentile metrics, and weak one with fewer than ten beyond.
	beyond int64
	pct    bool
	weak   bool
}

// report is what a workload run returns.
type report struct {
	params    string
	e2e       []metric
	layer     []metric
	info      []metric // printed, not part of the JSON contract
	attempted int64
	failed    int64
	problems  []string // correctness violations; any fails the run
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	// warmup is the time the load runs before the window opens. In the
	// TPC-C workloads it outlasts the rebalancer's promotion phase:
	// at its default budget (4 moves per 50-ms tick) it fills the
	// 1024-entry switch lock table in about 13 s on the rack and each
	// embedded shard's 512 entries in about 6.5 s, after which the
	// placement holds still for the window.
	warmup time.Duration
	run    func(o options, r *report) error
}

// setupRuns is how many times a gated run builds the system; setup_s is
// the median of those builds. Each build starts setupGap after the previous
// one was closed and collected, from an idle process: built back to back,
// a build overlaps the previous system's winding down, and the median then
// wandered twice as much from run to run.
const (
	setupRuns = 31
	setupGap  = 50 * time.Millisecond
)

// workloads lists every runnable workload. BENCHMARK.json gates rack-tpcc
// and embedded-tpcc; rack-micro runs by hand only, as its throughput
// follows the host's speed too closely to hold the 0.25 bound from run to
// run (see README.md).
var workloads = []workload{
	{name: "rack-micro", warmup: time.Second, run: runRackMicro},
	{name: "rack-tpcc", warmup: 16 * time.Second, run: runRackTPCC},
	{name: "embedded-tpcc", warmup: 8 * time.Second, run: runEmbeddedTPCC},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: rack-micro, rack-tpcc or embedded-tpcc")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from, for the header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || o.window <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (rack-micro, rack-tpcc, embedded-tpcc) and --seconds > 0\n")
		return 2
	}
	o.warmup, o.setups = wl.warmup, setupRuns
	return execute(o, wl, stdout, stderr)
}

// execute runs one workload with fully resolved options and prints its
// report, ending with the JSON result line.
func execute(o options, wl *workload, stdout, stderr io.Writer) int {
	mode := "untraced"
	if o.trace {
		// The traced run measures two windows, untraced then traced; they
		// share --seconds so a traced run costs what a gated one does.
		o.window /= 2
		mode = "traced (two windows)"
	}
	fmt.Fprintf(stdout, "# perfbench commit=%s go=%s num_cpu=%d gomaxprocs=%d\n",
		o.commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# workload=%s seed=%d window=%v warmup=%v setups=%d mode=%s\n",
		o.workload, o.seed, o.window, o.warmup, o.setups, mode)

	var r report
	probe := probeMs()
	err := wl.run(o, &r)
	r.info = append(r.info, metric{name: "host.probe_before_ms", unit: "ms", value: probe},
		metric{name: "host.probe_after_ms", unit: "ms", value: probeMs()})
	if r.params != "" {
		fmt.Fprintf(stdout, "# params: %s\n", r.params)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed=%d: %v\n", o.workload, o.seed, err)
		return 1
	}
	printMetrics(stdout, "end-to-end", r.e2e)
	printMetrics(stdout, "info", r.info)
	printMetrics(stdout, "per-layer", r.layer)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: VIOLATION workload=%s seed=%d: %s\n", o.workload, o.seed, p)
	}
	out := r.e2e
	if o.trace {
		out = r.layer
	}
	line, err := resultJSON(len(r.problems) == 0, r.attempted, r.failed, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, section string, ms []metric) {
	for _, m := range ms {
		extra := ""
		if m.pct {
			extra = fmt.Sprintf("  (n=%d, %d beyond)", m.n, m.beyond)
			if m.weak {
				extra += " fewer than 10 beyond: unsupported"
			}
		} else if m.n > 0 {
			extra = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "%-10s %-44s %16.6g %-6s%s\n", section, m.name, m.value, m.unit, extra)
	}
}

// resultJSON renders the last output line. An infinite percentile (more
// failures than the rank above it) is written as the largest float, since
// JSON has no infinity.
func resultJSON(correct bool, attempted, failed int64, ms []metric) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsInf(v, 1) {
			v = math.MaxFloat64
		}
		if math.IsNaN(v) {
			return "", fmt.Errorf("metric %s is NaN", m.name)
		}
		if _, dup := metrics[m.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.name)
		}
		metrics[m.name] = val{v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, metrics})
	return string(b), err
}

// pctMetric builds a percentile metric from a latency distribution in ns,
// reported in unit us.
func pctMetric(name string, l *lat, q float64) metric {
	v, beyond, ok := l.quantile(q)
	return metric{name: name, unit: "us", value: v / 1e3, n: l.count(), beyond: beyond, pct: true, weak: !ok}
}

// pctNs is pctMetric in ns, for per-layer stages.
func pctNs(name string, l *lat, q float64) metric {
	m := pctMetric(name, l, q)
	m.unit = "ns"
	m.value *= 1e3
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowResult is what one measured window produced.
type windowResult struct {
	dur      time.Duration
	acq, txn *lat  // pooled over the whole window
	grants   int64 // granted acquires completing in the window
	txns     int64 // transactions committed in the window
	// attempts and failures use the workload's unit of attempt: an
	// acquire in rack-micro, a transaction in the tpcc workloads.
	attempts, failures int64
	// memBaseMB is the process's resident size before the system was
	// built, with the benchmark's own inputs already allocated.
	memBaseMB float64
}

// e2eMetrics returns the end-to-end metrics of a window. In rack-micro a
// transaction is one single-lock acquire, so the txn metrics equal the
// acquire metrics there. Percentiles pool every attempt of the window, so
// a burst of failures or one long convoy moves the p99s.
func e2eMetrics(w windowResult, setup []float64) []metric {
	return []metric{
		{name: "setup_s", unit: "s", value: median(setup), n: int64(len(setup))},
		{name: "ops_per_s", unit: "1/s", value: ratio(float64(w.grants), w.dur.Seconds()), n: w.grants},
		pctMetric("acquire_p50_us", w.acq, 0.50),
		pctMetric("acquire_p99_us", w.acq, 0.99),
		{name: "txn_per_s", unit: "1/s", value: ratio(float64(w.txns), w.dur.Seconds()), n: w.txns},
		pctMetric("txn_p50_us", w.txn, 0.50),
		pctMetric("txn_p99_us", w.txn, 0.99),
		{name: "mem_peak_mb", unit: "MB", value: peakRSSMB() - w.memBaseMB},
	}
}

// failInfo is printed for every workload; it is not a gated metric
// because it is zero on a healthy run.
func failInfo(w windowResult) metric {
	return metric{name: "fail_frac", unit: "ratio", value: ratio(float64(w.failures), float64(w.attempts)), n: w.attempts}
}

// overheadMetrics compares the traced window against the untraced one:
// traced value ÷ untraced value for each end-to-end metric of a window.
func overheadMetrics(untraced, traced windowResult) []metric {
	u := e2eMetrics(untraced, nil)
	t := e2eMetrics(traced, nil)
	var ms []metric
	for i := range u {
		switch u[i].name {
		case "setup_s", "mem_peak_mb":
			continue
		}
		ms = append(ms, metric{name: "trace.overhead." + u[i].name, unit: "ratio", value: ratio(t[i].value, u[i].value)})
	}
	return ms
}

// layerMetricNames is the fixed per-layer metric set every traced run
// reports, in print order; a layer a workload leaves idle reports 0.
var layerMetricNames = []string{
	"netlock.acquire_ns.p50", "netlock.acquire_ns.p99", "netlock.release_ns.p50",
	"netlock.queued_frac", "netlock.alloc_bytes_per_grant", "netlock.allocs_per_grant",
	"switchdp.pass_ns.p50", "switchdp.pass_ns.p99", "switchdp.resubmits_per_acquire",
	"switchdp.served_frac", "switchdp.overflow_frac",
	"switchdp.queue_wait_ns.p50", "switchdp.queue_wait_ns.p99",
	"lockserver.acquire_share", "lockserver.queue_wait_ns.p50", "lockserver.queue_wait_ns.p99",
	"lockserver.residence_ns.p50",
	"transport.client.flush_wait_ns.p50", "transport.client.flush_wait_ns.p99",
	"transport.client.deliver_ns.p50", "transport.client.resend_frac",
	"transport.switch.residence_ns.p50", "transport.switch.residence_ns.p99",
	"transport.net_ns.p50",
	"transport.ops_per_frame.client", "transport.ops_per_frame.switch",
	"transport.syscalls_per_op", "transport.write_ns.p50", "transport.bytes_per_op",
	"ctrlplane.chain_hop_ns.p50", "ctrlplane.chain_hop_ns.p99", "ctrlplane.chain_datagrams_per_op",
	"rebalance.moves_per_s", "rebalance.move_ns.p50", "rebalance.move_ns.p99",
	"rebalance.move_fail_frac", "rebalance.measure_ns.p50",
	"proc.cpu_us_per_op", "proc.gc_cpu_frac",
	"self.acquire_us", "self.netlock_us", "self.transport.client_us", "self.transport.net_us",
	"self.transport.switch_us", "self.switchdp_us", "self.ctrlplane_us", "self.lockserver_us", "self.rebalance_us",
	"self.residual_us",
	"trace.overhead.ops_per_s", "trace.overhead.acquire_p50_us", "trace.overhead.acquire_p99_us",
	"trace.overhead.txn_per_s", "trace.overhead.txn_p50_us", "trace.overhead.txn_p99_us",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "trace.overhead."):
		return "ratio"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "per_s"):
		return "1/s"
	case strings.HasSuffix(name, "bytes_per_grant"), strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	case strings.HasPrefix(name, "transport.ops_per_frame"), strings.HasSuffix(name, "per_op"),
		strings.HasSuffix(name, "per_acquire"), strings.HasSuffix(name, "per_grant"):
		return "count"
	}
	return "ratio"
}

// layerSet collects per-layer metrics by name and emits the full fixed
// set, so every traced run reports the same names.
type layerSet map[string]metric

func (ls layerSet) set(name string, v float64) {
	ls[name] = metric{name: name, unit: layerUnit(name), value: v}
}

func (ls layerSet) add(ms ...metric) {
	for _, m := range ms {
		m.unit = layerUnit(m.name)
		ls[m.name] = m
	}
}

// list returns the fixed set in order; unknown names are a programming
// error caught by the tests.
func (ls layerSet) list() ([]metric, error) {
	out := make([]metric, 0, len(layerMetricNames))
	known := make(map[string]bool, len(layerMetricNames))
	for _, n := range layerMetricNames {
		known[n] = true
		m, ok := ls[n]
		if !ok {
			m = metric{name: n, unit: layerUnit(n)}
		}
		out = append(out, m)
	}
	var extra []string
	for n := range ls {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, errors.New("undeclared per-layer metrics: " + strings.Join(extra, ", "))
	}
	return out, nil
}

// histPct reports a percentile of an obs stage histogram (ns; HDR bucket
// upper bound, covering the instance's life up to the window's end).
func histPct(name string, h *stats.Histogram, q float64) metric {
	n := h.Count()
	rank := int64(math.Ceil(q * float64(n)))
	return metric{name: name, unit: "ns", value: float64(h.Percentile(q * 100)), n: n,
		beyond: n - rank, pct: true, weak: n-rank < 10}
}
