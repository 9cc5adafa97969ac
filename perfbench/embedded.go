package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/obs"
)

// embedded-tpcc: the TPC-C mix on an in-process netlock.Manager. Two
// worker goroutines run transactions back to back on the one warehouse,
// so they queue on its warehouse and district locks; there is no
// transport, so netlock, switchdp and lockserver self time is the whole
// transaction.

const (
	embeddedWorkers = 2
	// embeddedPool is the number of generated transactions each worker
	// cycles through; generating them up front keeps the measured loop
	// allocation-free on the generator side.
	embeddedPool = 1 << 16
)

func embeddedConfig(metrics bool) netlock.Config {
	return netlock.Config{
		SwitchSlots:       16384,
		MaxSwitchLocks:    1024,
		RebalanceInterval: 50 * time.Millisecond,
		Metrics:           metrics,
	}
}

// setupEmbedded builds the manager n times, timing each build until its
// first grant, and keeps the last instance running.
func setupEmbedded(n int, metrics bool, firstLock uint32) (*netlock.Manager, []float64, error) {
	var times []float64
	var m *netlock.Manager
	for i := 0; i < n; i++ {
		if m != nil {
			m.Close()
		}
		runtime.GC() // collect the previous build outside the timed span
		time.Sleep(setupGap)
		t0 := time.Now()
		m = netlock.New(embeddedConfig(metrics))
		g, err := m.Acquire(context.Background(), firstLock, netlock.Exclusive)
		if err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("set-up: first acquire: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		g.Release()
	}
	return m, times, nil
}

type embWorker struct {
	pool *txnPool
	k    int
	held []*netlock.Grant
	led  ledger // acquire-level
	txl  ledger // transaction-level

	acq, txn lat
	// Window counts, owned by the worker and read after it exits.
	grants, txns, txnFails int64
	// Traced runs only: acquire and release span durations.
	acqSpan, relSpan *lat
}

// embeddedWindow runs the closed loop on m for warmup + window and returns
// the window's results plus the workers for trace post-processing.
func embeddedWindow(o options, m *netlock.Manager, pools []*txnPool, or *holderOracle, traced bool, r *report,
	atWindow func(start bool)) (windowResult, []*embWorker) {
	var phase atomic.Int32
	// One deadline for every acquire: nothing should wait past the run,
	// and a shared context keeps the loop allocation-free.
	ctx, cancel := context.WithTimeout(context.Background(), o.warmup+o.window+30*time.Second)
	defer cancel()
	workers := make([]*embWorker, len(pools))
	var wg sync.WaitGroup
	for i := range workers {
		w := &embWorker{pool: pools[i]}
		if traced {
			w.acqSpan, w.relSpan = new(lat), new(lat)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, m, or, &phase)
		}()
	}
	time.Sleep(o.warmup)
	atWindow(true)
	start := time.Now()
	phase.Store(1)
	time.Sleep(o.window)
	phase.Store(2)
	res := windowResult{dur: time.Since(start)}
	atWindow(false)
	wg.Wait()

	res.acq, res.txn = new(lat), new(lat)
	for _, w := range workers {
		res.acq.merge(&w.acq)
		res.txn.merge(&w.txn)
		res.grants += w.grants
		res.txns += w.txns
		res.failures += w.txnFails
		if err := w.led.balance(); err != nil {
			r.fail("acquires: %v", err)
		}
		if err := w.txl.balance(); err != nil {
			r.fail("transactions: %v", err)
		}
	}
	res.attempts = res.txns + res.failures
	return res, workers
}

func (w *embWorker) loop(ctx context.Context, m *netlock.Manager, or *holderOracle, phase *atomic.Int32) {
	p := w.pool
	for phase.Load() < 2 {
		lo, hi := p.span(w.k)
		w.k++
		w.held = w.held[:0]
		w.txl.attempts.Add(1)
		start := time.Now()
		failed := false
		for i := lo; i < hi; i++ {
			mode := netlock.Shared
			if p.excl[i] {
				mode = netlock.Exclusive
			}
			w.led.attempts.Add(1)
			t0 := time.Now()
			g, err := m.Acquire(ctx, p.lock[i], mode)
			took := time.Since(t0)
			if err != nil {
				w.led.failures.Add(1)
				if phase.Load() == 1 {
					w.acq.fail()
				}
				failed = true
				break
			}
			w.led.grants.Add(1)
			or.granted(p.lock[i], p.idx[i], p.excl[i])
			w.held = append(w.held, g)
			if phase.Load() == 1 {
				w.acq.add(int64(took))
				w.grants++
				if w.acqSpan != nil {
					w.acqSpan.add(int64(took))
				}
			}
		}
		inWindow := phase.Load() == 1
		if failed {
			w.txl.failures.Add(1)
			if inWindow {
				w.txnFails++
				w.txn.fail()
			}
		} else {
			w.txl.grants.Add(1)
			if inWindow {
				w.txn.add(int64(time.Since(start)))
				w.txns++
			}
		}
		for j, g := range w.held {
			i := lo + j
			or.released(p.lock[i], p.idx[i], p.excl[i])
			if w.relSpan != nil && inWindow {
				t0 := time.Now()
				g.Release()
				w.relSpan.add(int64(time.Since(t0)))
				continue
			}
			g.Release()
		}
	}
}

// drainEmbedded checks the manager after the loop stopped: every acquire
// the switch saw was released, and the oracle holds nothing.
func drainEmbedded(m *netlock.Manager, or *holderOracle, r *report) {
	st := m.Stats()
	if st.Switch.Acquires != st.Switch.Releases {
		r.fail("drain: switch saw %d acquires but %d releases", st.Switch.Acquires, st.Switch.Releases)
	}
	if n := or.held(); n != 0 {
		r.fail("drain: oracle still records %d held locks", n)
	}
	n, msgs := or.report()
	if n > 0 {
		r.fail("oracle: %d mutual-exclusion violations: %v", n, msgs)
	}
}

func runEmbeddedTPCC(o options, r *report) error {
	pools, nlocks := genTPCCPools(o.seed, embeddedWorkers, embeddedPool)
	firstLock := pools[0].lock[0]
	r.params = fmt.Sprintf("embedded netlock.Manager (default shards, SwitchSlots=16384, MaxSwitchLocks=1024, RebalanceInterval=50ms); "+
		"tpcc.HighContention(1) think=0; %d workers, closed loop; %d pooled txns per worker over %d distinct locks",
		embeddedWorkers, embeddedPool, nlocks)

	setups := o.setups
	if o.trace {
		setups = 1
	}
	memBase := baseRSSMB()
	m, setupTimes, err := setupEmbedded(setups, false, firstLock)
	if err != nil {
		return err
	}
	or := newHolderOracle(nlocks)
	var st0, st1 netlock.Stats
	var rb0, rb1 netlock.RebalanceStats
	var p0, p1 procSample
	w, _ := embeddedWindow(o, m, pools, or, false, r, func(start bool) {
		if start {
			st0, rb0, p0 = m.Stats(), m.RebalanceStats(), readProc()
			return
		}
		p1, st1, rb1 = readProc(), m.Stats(), m.RebalanceStats()
	})
	drainEmbedded(m, or, r)
	m.Close()
	w.memBaseMB = memBase
	r.info = append(r.info, failInfo(w))
	r.attempted, r.failed = w.attempts, w.failures
	if !o.trace {
		r.e2e = e2eMetrics(w, setupTimes)
		return nil
	}

	// Traced run: the counts come from the untraced window above; the
	// spans and obs stages from a second, traced window on a fresh
	// manager with Config.Metrics on.
	ls := layerSet{}
	pd := diffProc(p0, p1)
	ls.set("netlock.alloc_bytes_per_grant", ratio(pd.allocBytes, float64(w.grants)))
	ls.set("netlock.allocs_per_grant", ratio(pd.allocObjects, float64(w.grants)))
	ls.set("proc.cpu_us_per_op", ratio(float64(pd.cpu)/1e3, float64(w.grants)))
	ls.set("proc.gc_cpu_frac", pd.gcFrac)
	embeddedCounts(ls, st0, st1, rb0, rb1, w.dur)

	tm, _, err := setupEmbedded(1, true, firstLock)
	if err != nil {
		return err
	}
	tor := newHolderOracle(nlocks)
	var sn0, sn1 *obs.Snapshot
	tw, workers := embeddedWindow(o, tm, pools, tor, true, r, func(start bool) {
		if start {
			sn0 = tm.Metrics()
			return
		}
		sn1 = tm.Metrics()
	})
	drainEmbedded(tm, tor, r)
	tm.Close()

	acqD, relD := new(lat), new(lat)
	for _, wk := range workers {
		acqD.merge(wk.acqSpan)
		relD.merge(wk.relSpan)
	}
	ls.add(pctNs("netlock.acquire_ns.p50", acqD, 0.50), pctNs("netlock.acquire_ns.p99", acqD, 0.99),
		pctNs("netlock.release_ns.p50", relD, 0.50))
	pass := sn1.Stage(obs.StageSwitchPass)
	ls.add(histPct("switchdp.pass_ns.p50", pass, 0.50), histPct("switchdp.pass_ns.p99", pass, 0.99))
	sq := sn1.Stage(obs.StageServerQueue)
	ls.add(histPct("lockserver.queue_wait_ns.p50", sq, 0.50), histPct("lockserver.queue_wait_ns.p99", sq, 0.99))
	acquires := float64(sn1.Counter(obs.CtrAcquires) - sn0.Counter(obs.CtrAcquires))
	ls.set("switchdp.resubmits_per_acquire", ratio(float64(sn1.Counter(obs.CtrResubmits)-sn0.Counter(obs.CtrResubmits)), acquires))

	// Self time of one lock cycle (acquire + release spans): the switch
	// pass time and the server queue wait are the child layers; the rest
	// is the netlock front end (shards, waiters, grants, lock waits).
	grants := float64(tw.grants)
	cycleUs := (acqD.h.Mean() + relD.h.Mean()) / 1e3
	swUs := ratio(float64(pass.Sum()-sn0.Stage(obs.StageSwitchPass).Sum()), grants) / 1e3
	srvUs := ratio(float64(sq.Sum()-sn0.Stage(obs.StageServerQueue).Sum()), grants) / 1e3
	ls.set("self.acquire_us", cycleUs)
	ls.set("self.switchdp_us", swUs)
	ls.set("self.lockserver_us", srvUs)
	ls.set("self.netlock_us", cycleUs-swUs-srvUs)
	ls.add(overheadMetrics(w, tw)...)
	r.info = append(r.info, metric{name: "traced.txn_per_s", unit: "1/s", value: float64(tw.txns) / tw.dur.Seconds()})
	r.layer, err = ls.list()
	return err
}

// embeddedCounts fills the count-derived per-layer metrics from Stats and
// RebalanceStats deltas over a window.
func embeddedCounts(ls layerSet, a, b netlock.Stats, ra, rb netlock.RebalanceStats, dur time.Duration) {
	swImm := float64(b.Switch.GrantsImmediate - a.Switch.GrantsImmediate)
	swQ := float64(b.Switch.GrantsQueued - a.Switch.GrantsQueued)
	var srvImm, srvQ, srvAcq float64
	for i := range b.Servers {
		var base uint64
		if i < len(a.Servers) {
			base = a.Servers[i].GrantsImmediate
		}
		srvImm += float64(b.Servers[i].GrantsImmediate - base)
		base = 0
		if i < len(a.Servers) {
			base = a.Servers[i].GrantsQueued
		}
		srvQ += float64(b.Servers[i].GrantsQueued - base)
		base = 0
		if i < len(a.Servers) {
			base = a.Servers[i].Acquires
		}
		srvAcq += float64(b.Servers[i].Acquires - base)
	}
	all := swImm + swQ + srvImm + srvQ
	acquires := float64(b.Switch.Acquires - a.Switch.Acquires)
	ls.set("netlock.queued_frac", ratio(swQ+srvQ, all))
	ls.set("switchdp.served_frac", ratio(swImm+swQ, all))
	ls.set("switchdp.overflow_frac", ratio(float64(b.Switch.Overflows-a.Switch.Overflows), acquires))
	ls.set("lockserver.acquire_share", ratio(srvAcq, acquires))
	moves := float64(rb.Promotions + rb.Demotions - ra.Promotions - ra.Demotions)
	fails := float64(rb.Failures - ra.Failures)
	ls.set("rebalance.moves_per_s", moves/dur.Seconds())
	ls.set("rebalance.move_fail_frac", ratio(fails, moves+fails))
}
