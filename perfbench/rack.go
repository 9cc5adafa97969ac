package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// The rack workloads drive one UDP rack (ctrlplane.Topology on loopback)
// from one client socket. One generator goroutine fills the closed loop;
// after that every grant drives the next request from the client's
// AcquireFunc callback, so the generator adds no threads.

// rackSpec describes a rack workload's topology.
type rackSpec struct {
	chain      int
	maxLocks   int
	totalSlots int
	// preinstall makes locks 1..microLocks switch-resident with
	// microSlotsPerLock slots each.
	preinstall bool
	// rebalance runs rebalance.Loop at 50 ms over the controller's Mover.
	rebalance bool
}

const (
	microSlotsPerLock = 16
	rackServers       = 2
	rebalanceEvery    = 50 * time.Millisecond
	// rackAcquireTimeout bounds every rack acquire; an acquire that times
	// out is a counted failure.
	rackAcquireTimeout = 10 * time.Second
)

// rackHooks are the traced run's attachments; nil fields mean untraced:
// real UDP (Net nil), no obs stripes, the controller's Mover unwrapped.
type rackHooks struct {
	net   transport.Network
	reg   *obs.Registry
	mover func(rebalance.Mover) rebalance.Mover
}

type rack struct {
	tp     *ctrlplane.Topology
	client *transport.Client
	loop   *rebalance.Loop
}

func buildRack(spec rackSpec, h rackHooks) (*rack, error) {
	cfg := ctrlplane.Config{
		Switches: spec.chain,
		Servers:  rackServers,
		DataPlane: switchdp.Config{
			MaxLocks:   spec.maxLocks,
			TotalSlots: spec.totalSlots,
			Priorities: 1,
			Obs:        h.reg.Stripe(0),
		},
		Server: lockserver.Config{Priorities: 1, Obs: h.reg.Stripe(1)},
		Net:    h.net,
	}
	if spec.preinstall {
		for id := uint32(1); id <= microLocks; id++ {
			cfg.SwitchLocks = append(cfg.SwitchLocks, ctrlplane.SwitchLock{ID: id, Slots: microSlotsPerLock})
		}
	}
	tp, err := ctrlplane.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("build rack: %w", err)
	}
	c, err := tp.NewClient(transport.ClientConfig{})
	if err != nil {
		tp.Close()
		return nil, fmt.Errorf("build rack client: %w", err)
	}
	rk := &rack{tp: tp, client: c}
	if spec.rebalance {
		mv := tp.Controller().Mover()
		if h.mover != nil {
			mv = h.mover(mv)
		}
		rk.loop = rebalance.New(mv, rebalance.Config{Interval: rebalanceEvery})
		rk.loop.Start()
	}
	return rk, nil
}

func (rk *rack) close() {
	if rk.loop != nil {
		rk.loop.Stop()
	}
	rk.tp.Close()
}

// setupRack builds the rack n times, timing each build until its first
// grant, and keeps the last one running.
func setupRack(n int, spec rackSpec, h rackHooks, firstLock uint32) (*rack, []float64, error) {
	var times []float64
	var rk *rack
	for i := 0; i < n; i++ {
		if rk != nil {
			rk.close()
		}
		runtime.GC() // collect the previous build outside the timed span
		time.Sleep(setupGap)
		t0 := time.Now()
		var err error
		rk, err = buildRack(spec, h)
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), rackAcquireTimeout)
		g, err := rk.client.Acquire(ctx, firstLock, netlock.Exclusive)
		if err == nil {
			times = append(times, time.Since(t0).Seconds())
			err = g.ReleaseWait(ctx)
		}
		cancel()
		if err != nil {
			rk.close()
			return nil, nil, fmt.Errorf("set-up: first request: %w", err)
		}
	}
	return rk, times, nil
}

// deadlineCtx hands the client a per-acquire deadline without allocating:
// AcquireFunc reads only the deadline, at submit time, so one value per
// caller is reused across its acquires.
type deadlineCtx struct {
	context.Context
	d time.Time
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.d, true }

// acqTracer observes the generator side of each traced acquire: the
// submit (before the client assigns the request's txn) and the grant
// callback.
type acqTracer interface {
	submit(lock uint32, at time.Time)
	granted(lock uint32, txn uint64, at time.Time)
}

// rackGen is the shared state of a rack generator: phase, accounting,
// oracle and the window's statistics.
type rackGen struct {
	c      *transport.Client
	or     *holderOracle
	tr     acqTracer
	phase  atomic.Int32 // 0 warm-up, 1 window, 2 stopping
	active atomic.Int64 // callers with a request in flight
	led    ledger       // acquire-level
	txl    ledger       // transaction-level (tpcc)

	// submitMu serializes submits in traced runs so the tracer's submit
	// order matches the client's txn assignment order.
	submitMu sync.Mutex

	mu                 sync.Mutex // guards the window statistics below
	acq, txn           lat
	grants, txns       int64
	acqFails, txnFails int64
}

func newRackGen(c *transport.Client, or *holderOracle, tr acqTracer) *rackGen {
	return &rackGen{c: c, or: or, tr: tr}
}

// submit sends one acquire for a caller, stamping its submit time in
// *start first: the callback can run before AcquireFunc returns.
func (g *rackGen) submit(ctx *deadlineCtx, lock uint32, excl bool, start *time.Time, cb func(*transport.Grant, error)) {
	mode := netlock.Shared
	if excl {
		mode = netlock.Exclusive
	}
	g.led.attempts.Add(1)
	if g.tr != nil {
		g.submitMu.Lock()
		defer g.submitMu.Unlock()
	}
	now := time.Now()
	*start = now
	ctx.d = now.Add(rackAcquireTimeout)
	if g.tr != nil {
		g.tr.submit(lock, now)
	}
	if err := g.c.AcquireFunc(ctx, lock, mode, cb); err != nil {
		// Only a closed client refuses a submit; the callback never runs.
		g.led.failures.Add(1)
		g.active.Add(-1)
	}
}

// window opens the measured window after warmup, closes it after the
// window, then waits for every caller to finish its request in flight.
func (g *rackGen) window(o options, atWindow func(start bool)) (time.Duration, error) {
	time.Sleep(o.warmup)
	atWindow(true)
	g.mu.Lock()
	g.acq, g.txn = lat{}, lat{}
	g.grants, g.txns, g.acqFails, g.txnFails = 0, 0, 0, 0
	start := time.Now()
	g.phase.Store(1)
	g.mu.Unlock()
	time.Sleep(o.window)
	g.mu.Lock()
	g.phase.Store(2)
	dur := time.Since(start)
	g.mu.Unlock()
	atWindow(false)
	deadline := time.Now().Add(rackAcquireTimeout + 5*time.Second)
	for g.active.Load() > 0 {
		if time.Now().After(deadline) {
			return dur, fmt.Errorf("drain: %d callers still waiting after the window", g.active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return dur, nil
}

// result snapshots the window statistics.
func (g *rackGen) result(dur time.Duration, perTxn bool) windowResult {
	g.mu.Lock()
	defer g.mu.Unlock()
	acq, txn := g.acq, g.txn
	w := windowResult{dur: dur, acq: &acq, txn: &txn, grants: g.grants, txns: g.txns}
	w.attempts, w.failures = g.txns+g.txnFails, g.txnFails
	if !perTxn {
		// rack-micro: a transaction is one single-lock acquire.
		w.txn, w.txns = w.acq, w.grants
		w.attempts, w.failures = g.grants+g.acqFails, g.acqFails
	}
	return w
}

// microSlot is one of rack-micro's in-flight acquire slots.
type microSlot struct {
	g     *rackGen
	rng   splitmix64
	lock  uint32
	excl  bool
	start time.Time
	ctx   deadlineCtx
	cb    func(*transport.Grant, error)
}

func (s *microSlot) next() {
	if s.g.phase.Load() >= 2 {
		s.g.active.Add(-1)
		return
	}
	s.lock, s.excl = nextMicroOp(&s.rng)
	s.g.submit(&s.ctx, s.lock, s.excl, &s.start, s.cb)
}

func (s *microSlot) done(gr *transport.Grant, err error) {
	now := time.Now()
	g := s.g
	if err != nil {
		g.led.failures.Add(1)
		g.mu.Lock()
		if g.phase.Load() == 1 {
			g.acqFails++
			g.acq.fail()
		}
		g.mu.Unlock()
		s.next()
		return
	}
	g.led.grants.Add(1)
	if g.tr != nil {
		g.tr.granted(gr.LockID(), gr.Txn(), now)
	}
	idx := int32(s.lock - 1)
	g.or.granted(s.lock, idx, s.excl)
	g.mu.Lock()
	if g.phase.Load() == 1 {
		g.acq.add(int64(now.Sub(s.start)))
		g.grants++
	}
	g.mu.Unlock()
	g.or.released(s.lock, idx, s.excl)
	gr.Release()
	s.next()
}

func startMicro(g *rackGen, seed int64) {
	g.active.Store(microSlots)
	for i := 0; i < microSlots; i++ {
		s := &microSlot{g: g, rng: microStream(seed, i), ctx: deadlineCtx{Context: context.Background()}}
		s.cb = s.done
		s.next()
	}
}

// rackTerm is one rack-tpcc terminal: it runs its pooled transactions back
// to back, acquiring each transaction's locks in order, one at a time.
type rackTerm struct {
	g        *rackGen
	pool     *txnPool
	k        int
	lo, hi   int
	pos      int
	held     []*transport.Grant
	txnStart time.Time
	acqStart time.Time
	ctx      deadlineCtx
	cb       func(*transport.Grant, error)
}

func (t *rackTerm) startTxn() {
	if t.g.phase.Load() >= 2 {
		t.g.active.Add(-1)
		return
	}
	t.lo, t.hi = t.pool.span(t.k)
	t.k++
	t.pos = t.lo
	t.held = t.held[:0]
	t.g.txl.attempts.Add(1)
	t.txnStart = time.Now()
	t.acquireNext()
}

func (t *rackTerm) acquireNext() {
	t.g.submit(&t.ctx, t.pool.lock[t.pos], t.pool.excl[t.pos], &t.acqStart, t.cb)
}

func (t *rackTerm) releaseAll() {
	p := t.pool
	for j, gr := range t.held {
		i := t.lo + j
		t.g.or.released(p.lock[i], p.idx[i], p.excl[i])
		gr.Release()
	}
	t.held = t.held[:0]
}

func (t *rackTerm) done(gr *transport.Grant, err error) {
	now := time.Now()
	g, p := t.g, t.pool
	if err != nil {
		// The transaction fails once: it gives back what it holds and the
		// terminal moves on.
		g.led.failures.Add(1)
		g.txl.failures.Add(1)
		g.mu.Lock()
		if g.phase.Load() == 1 {
			g.acqFails++
			g.txnFails++
			g.acq.fail()
			g.txn.fail()
		}
		g.mu.Unlock()
		t.releaseAll()
		t.startTxn()
		return
	}
	g.led.grants.Add(1)
	if g.tr != nil {
		g.tr.granted(gr.LockID(), gr.Txn(), now)
	}
	g.or.granted(p.lock[t.pos], p.idx[t.pos], p.excl[t.pos])
	t.held = append(t.held, gr)
	t.pos++
	committed := t.pos == t.hi
	g.mu.Lock()
	if g.phase.Load() == 1 {
		g.acq.add(int64(now.Sub(t.acqStart)))
		g.grants++
		if committed {
			g.txn.add(int64(now.Sub(t.txnStart)))
			g.txns++
		}
	}
	g.mu.Unlock()
	if !committed {
		t.acquireNext()
		return
	}
	g.txl.grants.Add(1)
	t.releaseAll()
	t.startTxn()
}

func startTPCC(g *rackGen, pools []*txnPool) {
	g.active.Store(int64(len(pools)))
	for _, p := range pools {
		t := &rackTerm{g: g, pool: p, ctx: deadlineCtx{Context: context.Background()}}
		t.cb = t.done
		t.startTxn()
	}
}

// drainRack checks the rack after the loop stopped: the ledgers close,
// the oracle holds nothing, and every chain member tracks no grant,
// pending acquire or pending release once the releases settle.
func drainRack(rk *rack, g *rackGen, perTxn bool, r *report) {
	if rk.loop != nil {
		rk.loop.Stop()
	}
	if err := g.led.balance(); err != nil {
		r.fail("acquires: %v", err)
	}
	if perTxn {
		if err := g.txl.balance(); err != nil {
			r.fail("transactions: %v", err)
		}
	}
	if n := g.or.held(); n != 0 {
		r.fail("drain: oracle still records %d held locks", n)
	}
	if n, msgs := g.or.report(); n > 0 {
		r.fail("oracle: %d mutual-exclusion violations: %v", n, msgs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := ""
		for i, sw := range rk.tp.Switches() {
			sn := sw.Snapshot()
			if sn.PendingAcquires+sn.TrackedGrants+sn.PendingReleases > 0 {
				busy = fmt.Sprintf("switch %d: %d pending acquires, %d tracked grants, %d pending releases",
					i, sn.PendingAcquires, sn.TrackedGrants, sn.PendingReleases)
				break
			}
		}
		if busy == "" {
			return
		}
		if time.Now().After(deadline) {
			r.fail("drain: %s", busy)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rackCounts are the count-derived per-layer readings of a rack.
type rackCounts struct {
	sw        switchdp.Stats
	srv       lockserver.Stats
	loopStats rebalance.Stats
}

func readRackCounts(rk *rack) rackCounts {
	var c rackCounts
	c.sw = rk.tp.Head().Snapshot().Stats
	for _, s := range rk.tp.Servers() {
		s.WithLockServer(func(ls *lockserver.Server) {
			st := ls.Stats()
			c.srv.Acquires += st.Acquires
			c.srv.GrantsImmediate += st.GrantsImmediate
			c.srv.GrantsQueued += st.GrantsQueued
		})
	}
	if rk.loop != nil {
		c.loopStats = rk.loop.Stats()
	}
	return c
}

// setRackCounts fills the count-derived per-layer metrics from two
// readings around a window.
func setRackCounts(ls layerSet, a, b rackCounts, dur time.Duration) {
	sw := float64(b.sw.GrantsImmediate + b.sw.GrantsQueued - a.sw.GrantsImmediate - a.sw.GrantsQueued)
	srv := float64(b.srv.GrantsImmediate + b.srv.GrantsQueued - a.srv.GrantsImmediate - a.srv.GrantsQueued)
	acquires := float64(b.sw.Acquires - a.sw.Acquires)
	ls.set("switchdp.served_frac", ratio(sw, sw+srv))
	ls.set("switchdp.overflow_frac", ratio(float64(b.sw.Overflows-a.sw.Overflows), acquires))
	ls.set("lockserver.acquire_share", ratio(float64(b.srv.Acquires-a.srv.Acquires), acquires))
	moves := float64(b.loopStats.Promotions + b.loopStats.Demotions - a.loopStats.Promotions - a.loopStats.Demotions)
	fails := float64(b.loopStats.Failures - a.loopStats.Failures)
	ls.set("rebalance.moves_per_s", moves/dur.Seconds())
	ls.set("rebalance.move_fail_frac", ratio(fails, moves+fails))
}

// rackWorkload is one rack workload's definition.
type rackWorkload struct {
	spec      rackSpec
	perTxn    bool
	firstLock uint32
	start     func(g *rackGen)
	oracleN   int
}

// rackWindow runs one window on rk and checks its outputs.
func rackWindow(o options, rk *rack, wl rackWorkload, tr acqTracer, r *report, atWindow func(start bool)) windowResult {
	g := newRackGen(rk.client, newHolderOracle(wl.oracleN), tr)
	wl.start(g)
	dur, err := g.window(o, atWindow)
	if err != nil {
		r.fail("%v", err)
	}
	drainRack(rk, g, wl.perTxn, r)
	return g.result(dur, wl.perTxn)
}

func runRack(o options, wl rackWorkload, r *report) error {
	setups := o.setups
	if o.trace {
		setups = 1
	}
	memBase := baseRSSMB()
	rk, setupTimes, err := setupRack(setups, wl.spec, rackHooks{}, wl.firstLock)
	if err != nil {
		return err
	}
	var c0, c1 rackCounts
	var p0, p1 procSample
	w := rackWindow(o, rk, wl, nil, r, func(start bool) {
		if start {
			c0, p0 = readRackCounts(rk), readProc()
			return
		}
		p1, c1 = readProc(), readRackCounts(rk)
	})
	rk.close()
	w.memBaseMB = memBase
	r.info = append(r.info, failInfo(w))
	r.attempted, r.failed = w.attempts, w.failures
	if !o.trace {
		r.e2e = e2eMetrics(w, setupTimes)
		return nil
	}
	ls := layerSet{}
	pd := diffProc(p0, p1)
	ls.set("proc.cpu_us_per_op", ratio(float64(pd.cpu)/1e3, float64(w.grants)))
	ls.set("proc.gc_cpu_frac", pd.gcFrac)
	setRackCounts(ls, c0, c1, w.dur)
	if err := tracedRackWindow(o, wl, w, ls, r); err != nil {
		return err
	}
	r.layer, err = ls.list()
	return err
}

func runRackMicro(o options, r *report) error {
	r.params = fmt.Sprintf("UDP rack on loopback: chain 1, %d servers; %d locks preinstalled with %d slots each; "+
		"uniform single-lock acquire->release, 90%% shared / 10%% exclusive; %d in-flight acquires on 1 client socket",
		rackServers, microLocks, microSlotsPerLock, microSlots)
	seed := o.seed
	return runRack(o, rackWorkload{
		spec:      rackSpec{chain: 1, maxLocks: 2 * microLocks, totalSlots: microLocks * microSlotsPerLock, preinstall: true},
		firstLock: 1,
		start:     func(g *rackGen) { startMicro(g, seed) },
		oracleN:   microLocks,
	}, r)
}

// rackTerminals and rackPool size rack-tpcc's closed loop.
const (
	rackTerminals = 32
	rackPool      = 4096
)

func runRackTPCC(o options, r *report) error {
	pools, nlocks := genTPCCPools(o.seed, rackTerminals, rackPool)
	r.params = fmt.Sprintf("UDP rack on loopback: chain 3, %d servers; switch 1024 locks / 16384 slots, nothing preinstalled, "+
		"rebalance.Loop every %v; tpcc.HighContention(1) think=0; %d terminals on 1 client socket; "+
		"%d pooled txns per terminal over %d distinct locks",
		rackServers, rebalanceEvery, rackTerminals, rackPool, nlocks)
	return runRack(o, rackWorkload{
		spec:      rackSpec{chain: 3, maxLocks: 1024, totalSlots: 16384, rebalance: true},
		perTxn:    true,
		firstLock: pools[0].lock[0],
		start:     func(g *rackGen) { startTPCC(g, pools) },
		oracleN:   nlocks,
	}, r)
}
