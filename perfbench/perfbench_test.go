package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"netlock/internal/wire"
)

func latOf(vals []int64, failed int64) *lat {
	l := new(lat)
	for _, v := range vals {
		l.add(v)
	}
	l.failed = failed
	return l
}

func seq(n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i + 1)
	}
	return vs
}

// near reports whether v is within the histogram's 1.6% bucket error of
// want.
func near(v, want float64) bool { return math.Abs(v-want) <= 0.02*want }

func TestQuantileNeedsTenBeyond(t *testing.T) {
	// 1009 attempts: p99 has rank 999, leaving exactly 10 beyond.
	v, beyond, ok := latOf(seq(1009), 0).quantile(0.99)
	if !ok || beyond != 10 || !near(v, 999) {
		t.Fatalf("1009 samples: p99=%v beyond=%d ok=%v, want ~999 10 true", v, beyond, ok)
	}
	// 1000 attempts: rank 990 leaves 10 beyond; 999 leaves only 9.
	if _, beyond, ok := latOf(seq(999), 0).quantile(0.99); ok || beyond != 9 {
		t.Fatalf("999 samples: beyond=%d ok=%v, want 9 false", beyond, ok)
	}
	v, _, ok = latOf(seq(1000), 0).quantile(0.50)
	if !ok || !near(v, 500) {
		t.Fatalf("p50 of 1..1000 = %v (ok %v), want ~500", v, ok)
	}
	// Values below 64 are exact: the median of 1..60 is rank 30.
	if v, _, _ := latOf(seq(60), 0).quantile(0.50); v != 30 {
		t.Fatalf("p50 of 1..60 = %v, want 30", v)
	}
}

func TestFailuresRankAboveEverySuccess(t *testing.T) {
	// 2% failures put p99 among the failures: a miss at +Inf.
	l := latOf(seq(980), 20)
	if v, _, _ := l.quantile(0.99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", v)
	}
	// The failures still shift the median's rank.
	if v, _, _ := l.quantile(0.50); !near(v, 500) {
		t.Fatalf("p50 = %v, want ~500", v)
	}
	// Merging keeps both the samples and the failures.
	m := latOf(seq(10), 1)
	m.merge(latOf(seq(10), 2))
	if m.count() != 23 || m.failed != 3 {
		t.Fatalf("merged count %d failed %d, want 23 and 3", m.count(), m.failed)
	}
}

func TestPercentilePrintsCount(t *testing.T) {
	var buf bytes.Buffer
	printMetrics(&buf, "x", []metric{
		pctMetric("lat_p99_us", latOf(seq(500), 0), 0.99),
		pctMetric("lat_p50_us", latOf(seq(500), 0), 0.50),
	})
	out := buf.String()
	if !strings.Contains(out, "n=500, 5 beyond) fewer than 10 beyond: unsupported") {
		t.Fatalf("p99 over 500 samples not flagged:\n%s", out)
	}
	if !strings.Contains(out, "n=500, 250 beyond)\n") {
		t.Fatalf("p50 line lacks its count:\n%s", out)
	}
}

func TestOracleCatchesDoubleExclusiveGrant(t *testing.T) {
	o := newHolderOracle(4)
	o.granted(7, 0, true)
	o.granted(7, 0, true) // injected: a second exclusive holder
	if n, msgs := o.report(); n != 1 || !strings.Contains(msgs[0], "exclusive grant of lock 7") {
		t.Fatalf("double exclusive grant: %d violations %v, want 1", n, msgs)
	}

	o = newHolderOracle(4)
	o.granted(9, 1, false)
	o.granted(9, 1, false)
	o.granted(9, 1, true) // exclusive while two share it
	o.released(9, 1, false)
	o.released(9, 1, false)
	o.granted(9, 1, true)
	o.granted(9, 1, false) // shared while held exclusive
	if n, _ := o.report(); n != 2 {
		t.Fatalf("mixed-mode conflicts: %d violations, want 2", n)
	}

	o = newHolderOracle(4)
	for i := 0; i < 3; i++ {
		o.granted(1, 2, false)
	}
	for i := 0; i < 3; i++ {
		o.released(1, 2, false)
	}
	o.granted(1, 2, true)
	o.released(1, 2, true)
	if n, msgs := o.report(); n != 0 || o.held() != 0 {
		t.Fatalf("legal history: %d violations %v, %d held", n, msgs, o.held())
	}
}

func TestLedgerBalance(t *testing.T) {
	var l ledger
	l.attempts.Add(3)
	l.grants.Add(2)
	if l.balance() == nil {
		t.Fatal("2 of 3 attempts accounted, balance passed")
	}
	l.failures.Add(1)
	if err := l.balance(); err != nil {
		t.Fatal(err)
	}
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	a, na := genTPCCPools(42, 3, 200)
	b, nb := genTPCCPools(42, 3, 200)
	if na != nb || !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different TPC-C pools")
	}
	c, _ := genTPCCPools(43, 3, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical TPC-C pools")
	}
	for i := range a {
		if a[i].txns() != 200 {
			t.Fatalf("pool %d has %d txns, want 200", i, a[i].txns())
		}
	}

	draw := func(seed int64, slot int) []uint64 {
		s := microStream(seed, slot)
		var out []uint64
		for i := 0; i < 100; i++ {
			lock, excl := nextMicroOp(&s)
			if lock < 1 || lock > microLocks {
				t.Fatalf("lock %d outside 1..%d", lock, microLocks)
			}
			v := uint64(lock) << 1
			if excl {
				v |= 1
			}
			out = append(out, v)
		}
		return out
	}
	if !reflect.DeepEqual(draw(5, 3), draw(5, 3)) {
		t.Fatal("same seed and slot drew different micro streams")
	}
	if reflect.DeepEqual(draw(5, 3), draw(5, 4)) || reflect.DeepEqual(draw(5, 3), draw(6, 3)) {
		t.Fatal("different slots or seeds drew the same micro stream")
	}
}

func TestFrameDecoderReadsWireFrames(t *testing.T) {
	hdr := func(op wire.Op, lock uint32, txn uint64) wire.Header {
		return wire.Header{Op: op, Mode: wire.Exclusive, LockID: lock, TxnID: txn,
			ClientIP: netip.MustParseAddr("127.0.0.1"), ClientPort: 4000}
	}
	type seen struct {
		op   wire.Op
		lock uint32
		txn  uint64
	}
	var d frameDecoder
	collect := func(data []byte) (frameKind, int, []seen) {
		var got []seen
		k, n := d.decode(data, func(h *wire.Header) { got = append(got, seen{h.Op, h.LockID, h.TxnID}) })
		return k, n, got
	}

	var bw wire.BatchWriter
	bw.Reset(nil)
	for i := 0; i < 3; i++ {
		h := hdr(wire.OpAcquire, uint32(10+i), uint64(100+i))
		if !bw.Append(&h) {
			t.Fatal("batch append failed")
		}
	}
	k, n, got := collect(bw.Frame())
	want := []seen{{wire.OpAcquire, 10, 100}, {wire.OpAcquire, 11, 101}, {wire.OpAcquire, 12, 102}}
	if k != frameBatch || n != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch: kind %d, %d ops %v", k, n, got)
	}

	h := hdr(wire.OpGrant, 77, 9)
	k, n, got = collect(h.AppendTo(nil))
	if k != frameHeader || n != 1 || !reflect.DeepEqual(got, []seen{{wire.OpGrant, 77, 9}}) {
		t.Fatalf("bare header: kind %d, %d ops %v", k, n, got)
	}

	// A chain datagram concatenates records: two ops around an ack.
	var buf []byte
	op1 := wire.ChainMsg{Kind: wire.ChainOp, Origin: wire.OriginClient, Epoch: 1, Seq: 5, Hdr: hdr(wire.OpAcquire, 3, 30)}
	ack := wire.ChainMsg{Kind: wire.ChainAck, Epoch: 1, Seq: 4}
	op2 := wire.ChainMsg{Kind: wire.ChainOp, Origin: wire.OriginServer, Epoch: 1, Seq: 6, Hdr: hdr(wire.OpGrant, 4, 40)}
	buf = op1.AppendTo(buf)
	buf = ack.AppendTo(buf)
	buf = op2.AppendTo(buf)
	k, n, got = collect(buf)
	if k != frameChain || n != 2 || !reflect.DeepEqual(got, []seen{{wire.OpAcquire, 3, 30}, {wire.OpGrant, 4, 40}}) {
		t.Fatalf("chain: kind %d, %d ops %v", k, n, got)
	}

	if k, n, _ := collect([]byte{0xff, 0, 1}); k != frameOther || n != 0 {
		t.Fatalf("garbage: kind %d, %d ops", k, n)
	}
}

func TestClassifyCoversAcquirePaths(t *testing.T) {
	ev := func(kind uint8, member int8, via uint8, cycle uint32) event {
		return event{kind: kind, member: member, via: via, cycle: cycle}
	}
	cases := []struct {
		a, b  event
		layer string
	}{
		{ev(evSubmit, 0, 0, 0), ev(evClientOut, 0, 0, 0), layerClient},
		{ev(evClientOut, 0, 0, 0), ev(evSwIn, 0, 0, 1), layerNet},
		{ev(evSwIn, 0, 0, 1), ev(evSwOut, 0, outChain, 1), layerSwitch},
		{ev(evSwIn, 0, 0, 1), ev(evSwOut, 0, outGrant, 9), layerQueue},
		{ev(evSwOut, 0, outChain, 1), ev(evSwIn, 2, 0, 4), layerChain},
		{ev(evSwOut, 2, outForward, 4), ev(evSrvIn, 0, 0, 1), layerNet},
		{ev(evSrvIn, 0, 0, 1), ev(evSrvOut, 0, 0, 1), layerServer},
		{ev(evSwOut, 2, viaOverflow, 4), ev(evSrvIn, 0, viaOverflow, 1), layerNet},
		{ev(evSrvIn, 0, viaOverflow, 1), ev(evSwOut, 2, outGrant, 8), layerQueue},
		{ev(evSrvIn, 0, 0, 1), ev(evSwOut, 2, outGrant, 8), layerMove},
		{ev(evSwIn, 2, 0, 4), ev(evSrvOut, 0, 0, 2), layerMove},
		{ev(evSwOut, 2, outGrant, 4), ev(evClientIn, 0, 0, 3), layerNet},
		{ev(evClientIn, 0, 0, 3), ev(evGrant, 0, 0, 0), layerClient},
		{ev(evClientOut, 0, 0, 0), ev(evClientIn, 0, 0, 0), layerResidual},
	}
	for _, c := range cases {
		if got, _ := classify(c.a, c.b); got != c.layer {
			t.Errorf("classify(%+v, %+v) = %s, want %s", c.a, c.b, got, c.layer)
		}
	}

	// A request's segments sum to its latency, residual included.
	evs := []event{
		{t: 0, kind: evSubmit, lock: 1, txn: 1},
		{t: 10, kind: evClientOut, lock: 1, txn: 1},
		{t: 25, kind: evSwIn, lock: 1, txn: 1, cycle: 3},
		{t: 27, kind: evSwOut, via: outGrant, lock: 1, txn: 1, cycle: 3},
		{t: 29, kind: evSwOut, via: outGrant, lock: 1, txn: 1, cycle: 5}, // re-sent grant: dropped
		{t: 40, kind: evClientIn, lock: 1, txn: 1},
		{t: 44, kind: evGrant, lock: 1, txn: 1},
		{t: 5, kind: evClientOut, lock: 2, txn: 1}, // no submit seen: not analysed
	}
	res := analyze(evs)
	var sum int64
	for _, v := range res.selfNs {
		sum += v
	}
	if res.requests != 1 || res.totalNs != 44 || sum != 44 || res.selfNs[layerSwitch] != 2 {
		t.Fatalf("analysis: %d requests, total %d, segments %v", res.requests, res.totalNs, res.selfNs)
	}
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced, and
// checks each run passes its own output checks.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				o := options{workload: wl.name, seed: 7, window: 600 * time.Millisecond, trace: trace == "1",
					warmup: 400 * time.Millisecond, setups: 2, traceDir: t.TempDir(), commit: "test"}
				if code := execute(o, &wl, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                       `json:"correct"`
					Attempted int64                      `json:"attempted"`
					Failed    int64                      `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := benchmarkNames(t, trace == "1")
				for _, n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("metric %s missing", n)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T, perLayer bool) []string {
	t.Helper()
	var names []string
	for _, m := range benchmarkMetrics(t, perLayer) {
		names = append(names, m[0])
	}
	return names
}

// benchmarkMetrics reads the (name, unit) pairs BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T, perLayer bool) [][2]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ms := spec.EndToEnd
	if perLayer {
		ms = spec.PerLayer
	}
	var out [][2]string
	for _, m := range ms {
		out = append(out, [2]string{m.Name, m.Unit})
	}
	return out
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var layer [][2]string
	for _, n := range layerMetricNames {
		layer = append(layer, [2]string{n, layerUnit(n)})
	}
	if got := benchmarkMetrics(t, true); !reflect.DeepEqual(got, layer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", got, layer)
	}
	var e2e [][2]string
	for _, m := range e2eMetrics(windowResult{dur: 1, acq: new(lat), txn: new(lat)}, []float64{1}) {
		e2e = append(e2e, [2]string{m.name, m.unit})
	}
	if got := benchmarkMetrics(t, false); !reflect.DeepEqual(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", got, e2e)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, wl := range workloads {
		known[wl.name] = true
	}
	for _, wl := range spec.Workloads {
		if !known[wl.Name] {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", wl.Name)
		}
	}
}
