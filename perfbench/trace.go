package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/memalloc"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

// The traced rack run sees the rack from outside: every socket comes from
// tapNet, a transport.Network wrapping real UDP that the rack takes
// through ctrlplane.Config.Net. Each datagram is decoded with the public
// wire readers, and each NetLock op in it becomes an event keyed by its
// request id (lock, txn). Joined with the generator's submit and grant
// callbacks, a request's events cut its acquire latency into consecutive
// segments, each owned by one layer; the segments sum to the latency, and
// what no rule claims is the residual.

// Socket roles, assigned from the topology's addresses once it is built.
const (
	roleUnknown int32 = iota
	roleClient
	roleSwitch
	roleServer
)

// Event kinds, in causal order along an acquire.
const (
	evSubmit    uint8 = iota // generator hands the op to AcquireFunc
	evClientOut              // client socket writes the acquire
	evSwIn                   // a switch member reads the op (or its chain record)
	evSwOut                  // a switch member writes its chain record, grant or forward
	evSrvIn                  // the lock server reads the forwarded acquire
	evSrvOut                 // the lock server writes the grant
	evClientIn               // client socket reads the grant
	evGrant                  // the AcquireFunc callback runs
)

// Event flavours in event.via: how a switch member's write carries the
// op (evSwOut), and whether a forwarded acquire is an overflow (evSwOut,
// evSrvIn).
const (
	outChain uint8 = iota + 1
	outGrant
	outForward
	viaOverflow // switch queue full: buffered at the server until pushed back
)

type reqKey struct {
	lock uint32
	txn  uint64
}

type event struct {
	t      int64 // ns since the recorder's base
	txn    uint64
	lock   uint32
	cycle  uint32 // the socket's read count when the event happened
	kind   uint8
	member int8  // chain member index for switch events
	op     uint8 // wire op of the traced header
	via    uint8 // out* flavour of an evSwOut
}

// recorder owns the trace state shared by the sockets and the generator.
type recorder struct {
	base  time.Time
	on    atomic.Bool // record events and counts only inside the window
	every uint32      // trace requests on locks with lock%every == 0

	// Pairing of generator submits with the client's first write of each
	// acquire: submits push their time per lock, first writes pop in
	// order (the client assigns txns and writes in submit order, and
	// traced submits are serialized). Maintained outside the window too,
	// so pairs never drift.
	pairMu    sync.Mutex
	fifo      map[uint32][]int64
	inflight  map[reqKey]bool // acquires written, not yet answered
	relFlight map[reqKey]bool // releases written, not yet acked
	ops       int64           // distinct traced ops written in the window
	resends   int64           // traced ops written again in the window

	genMu     sync.Mutex
	genEvents []event
}

func newRecorder(every uint32) *recorder {
	return &recorder{base: time.Now(), every: every, fifo: make(map[uint32][]int64),
		inflight: make(map[reqKey]bool), relFlight: make(map[reqKey]bool)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) sampled(lock uint32) bool { return lock%r.every == 0 }

func (r *recorder) submit(lock uint32, at time.Time) {
	if !r.sampled(lock) {
		return
	}
	r.pairMu.Lock()
	r.fifo[lock] = append(r.fifo[lock], int64(at.Sub(r.base)))
	r.pairMu.Unlock()
}

func (r *recorder) granted(lock uint32, txn uint64, at time.Time) {
	if !r.sampled(lock) || !r.on.Load() {
		return
	}
	r.genMu.Lock()
	r.genEvents = append(r.genEvents, event{t: int64(at.Sub(r.base)), txn: txn, lock: lock, kind: evGrant})
	r.genMu.Unlock()
}

// clientWrite handles one op the client writes. It returns the submit
// time of a first acquire write (ok false otherwise).
func (r *recorder) clientWrite(h *wire.Header) (submitAt int64, ok bool) {
	k := reqKey{h.LockID, h.TxnID}
	on := r.on.Load()
	r.pairMu.Lock()
	defer r.pairMu.Unlock()
	flight := r.inflight
	if h.Op == wire.OpRelease {
		flight = r.relFlight
	} else if h.Op != wire.OpAcquire {
		return 0, false
	}
	if flight[k] {
		if on {
			r.resends++
		}
		return 0, false
	}
	flight[k] = true
	if on {
		r.ops++
	}
	if h.Op != wire.OpAcquire {
		return 0, false
	}
	q := r.fifo[h.LockID]
	if len(q) == 0 {
		return 0, false // not submitted by the generator (the set-up request)
	}
	submitAt = q[0]
	if len(q) == 1 {
		delete(r.fifo, h.LockID)
	} else {
		r.fifo[h.LockID] = q[1:]
	}
	return submitAt, true
}

// clientRead retires the pairing state an answer completes.
func (r *recorder) clientRead(h *wire.Header) {
	k := reqKey{h.LockID, h.TxnID}
	r.pairMu.Lock()
	switch h.Op {
	case wire.OpGrant, wire.OpFetch:
		delete(r.inflight, k)
	case wire.OpReject:
		if h.Flags&wire.FlagMoved == 0 {
			delete(r.inflight, k) // final; a moved reject is retried
		}
	case wire.OpReleaseAck:
		delete(r.relFlight, k)
	}
	r.pairMu.Unlock()
}

// frameKind classifies a datagram.
type frameKind uint8

const (
	frameOther frameKind = iota
	frameHeader
	frameBatch
	frameChain
)

// frameDecoder decodes datagrams with the public wire readers; one per
// socket, reused across datagrams.
type frameDecoder struct {
	br wire.BatchReader
	h  wire.Header
	cm wire.ChainMsg
}

// decode calls fn for every NetLock op the datagram carries — the ops of
// a batch frame, a bare header, or the headers embedded in chain op and
// relay records (chain acks carry none) — and returns the frame kind and
// the op count.
func (d *frameDecoder) decode(data []byte, fn func(h *wire.Header)) (frameKind, int) {
	switch {
	case wire.IsChain(data):
		n := 0
		for len(data) >= wire.ChainHdrLen {
			if d.cm.DecodeFromBytes(data) != nil {
				break
			}
			if d.cm.Kind == wire.ChainAck {
				data = data[wire.ChainHdrLen:]
				continue
			}
			data = data[wire.ChainOpLen:]
			n++
			fn(&d.cm.Hdr)
		}
		return frameChain, n
	case wire.IsShardMap(data):
		return frameOther, 0
	case wire.IsBatch(data):
		if d.br.Reset(data) != nil {
			return frameOther, 0
		}
		n := 0
		for {
			ok, err := d.br.Next(&d.h)
			if err != nil || !ok {
				break
			}
			n++
			fn(&d.h)
		}
		return frameBatch, n
	}
	if d.h.DecodeFromBytes(data) != nil {
		return frameOther, 0
	}
	fn(&d.h)
	return frameHeader, 1
}

// tapNet hands out traced sockets over an inner Network.
type tapNet struct {
	inner transport.Network
	rec   *recorder
	mu    sync.Mutex
	conns []*tapConn
}

func (n *tapNet) Listen(addr string) (transport.PacketConn, error) {
	pc, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	c := &tapConn{PacketConn: pc, rec: n.rec}
	n.mu.Lock()
	n.conns = append(n.conns, c)
	n.mu.Unlock()
	return c, nil
}

// assignRoles labels every socket from the rack's addresses; the one
// socket that is neither a switch nor a server is the client's.
func (n *tapNet) assignRoles(tp *ctrlplane.Topology) {
	members := tp.Switches()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		a := c.LocalAddr().String()
		role, member := roleClient, 0
		for i, sw := range members {
			if sw.Addr() == a {
				role, member = roleSwitch, i
			}
		}
		for _, s := range tp.Servers() {
			if s.Addr() == a {
				role = roleServer
			}
		}
		c.member.Store(int32(member))
		c.tail.Store(member == len(members)-1)
		c.role.Store(role)
	}
}

// tapConn is one traced socket.
type tapConn struct {
	transport.PacketConn
	rec    *recorder
	role   atomic.Int32
	member atomic.Int32
	tail   atomic.Bool
	cycle  atomic.Uint32

	mu     sync.Mutex // guards everything below
	dec    frameDecoder
	events []event
	// Window counts.
	reads, writes, bytesOut    int64
	framesOut, opsOut, chainDg int64
	writeNs                    lat
}

func (c *tapConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, from, err := c.PacketConn.ReadFromUDPAddrPort(b)
	if err == nil {
		t := c.rec.now()
		cyc := c.cycle.Add(1)
		c.observe(false, b[:n], t, cyc)
	}
	return n, from, err
}

func (c *tapConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	t := c.rec.now()
	n, err := c.PacketConn.WriteToUDPAddrPort(b, to)
	took := c.rec.now() - t
	c.observe(true, b, t, c.cycle.Load())
	if c.rec.on.Load() {
		c.mu.Lock()
		c.writeNs.add(took)
		c.bytesOut += int64(len(b))
		c.mu.Unlock()
	}
	return n, err
}

// observe decodes one datagram and records its traced ops.
func (c *tapConn) observe(out bool, data []byte, t int64, cyc uint32) {
	role := c.role.Load()
	if role == roleUnknown {
		return
	}
	on := c.rec.on.Load()
	if !on && role != roleClient {
		return
	}
	member := int8(c.member.Load())
	head, tail := member == 0, c.tail.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	add := func(h *wire.Header, kind, via uint8) {
		if on {
			c.events = append(c.events, event{t: t, txn: h.TxnID, lock: h.LockID, cycle: cyc,
				kind: kind, member: member, op: uint8(h.Op), via: via})
		}
	}
	kind, ops := c.dec.decode(data, func(h *wire.Header) {
		if !c.rec.sampled(h.LockID) {
			return
		}
		switch role {
		case roleClient:
			if out {
				if at, ok := c.rec.clientWrite(h); ok && on {
					c.events = append(c.events, event{t: at, txn: h.TxnID, lock: h.LockID, kind: evSubmit})
					add(h, evClientOut, 0)
				}
				return
			}
			if h.Op == wire.OpGrant || h.Op == wire.OpFetch {
				add(h, evClientIn, 0)
			}
			c.rec.clientRead(h)
		case roleServer:
			switch {
			case !out && h.Op == wire.OpAcquire && h.Flags&wire.FlagOverflow != 0:
				add(h, evSrvIn, viaOverflow)
			case !out && h.Op == wire.OpAcquire:
				add(h, evSrvIn, 0)
			case out && (h.Op == wire.OpGrant || h.Op == wire.OpFetch):
				add(h, evSrvOut, 0)
			}
		case roleSwitch:
			if h.Op != wire.OpAcquire && h.Op != wire.OpGrant && h.Op != wire.OpFetch {
				return
			}
			chain := wire.IsChain(data)
			switch {
			case !head && !tail:
				// A middle member's hop is inside the chain hop.
			case !out && (!chain || tail):
				add(h, evSwIn, 0)
			case out && chain && head:
				add(h, evSwOut, outChain)
			case out && !chain && h.Op == wire.OpAcquire && h.Flags&wire.FlagOverflow != 0:
				add(h, evSwOut, viaOverflow)
			case out && !chain && h.Op == wire.OpAcquire:
				add(h, evSwOut, outForward)
			case out && !chain:
				add(h, evSwOut, outGrant)
			}
		}
	})
	if !on {
		return
	}
	if !out {
		c.reads++
		return
	}
	c.writes++
	switch kind {
	case frameChain:
		c.chainDg++
	case frameBatch, frameHeader:
		c.framesOut++
		c.opsOut += int64(ops)
	}
}

// resetCounts zeroes the window counts of every socket (events are only
// recorded while the window is open).
func (n *tapNet) resetCounts() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		c.mu.Lock()
		c.reads, c.writes, c.bytesOut, c.framesOut, c.opsOut, c.chainDg = 0, 0, 0, 0, 0, 0
		c.writeNs = lat{}
		c.events = c.events[:0]
		c.mu.Unlock()
	}
}

// timedMover wraps the controller's Mover to time the rebalancer's calls
// into it.
type timedMover struct {
	rebalance.Mover
	on atomic.Bool

	mu               sync.Mutex
	move, measure    lat
	moveOK, moveFail int64
}

func (m *timedMover) wrap(inner rebalance.Mover) rebalance.Mover {
	m.Mover = inner
	return m
}

func (m *timedMover) MeasureDemands(windowSec float64) []memalloc.Demand {
	t0 := time.Now()
	d := m.Mover.MeasureDemands(windowSec)
	if m.on.Load() {
		m.mu.Lock()
		m.measure.add(int64(time.Since(t0)))
		m.mu.Unlock()
	}
	return d
}

func (m *timedMover) MoveToSwitch(lockID uint32, slots uint64) (rebalance.Report, error) {
	t0 := time.Now()
	rep, err := m.Mover.MoveToSwitch(lockID, slots)
	m.recordMove(t0, err)
	return rep, err
}

func (m *timedMover) MoveToServer(lockID uint32) (rebalance.Report, error) {
	t0 := time.Now()
	rep, err := m.Mover.MoveToServer(lockID)
	m.recordMove(t0, err)
	return rep, err
}

func (m *timedMover) recordMove(t0 time.Time, err error) {
	if !m.on.Load() {
		return
	}
	m.mu.Lock()
	m.move.add(int64(time.Since(t0)))
	if err != nil {
		m.moveFail++
	} else {
		m.moveOK++
	}
	m.mu.Unlock()
}

// Layers that own acquire-path segments, named by module.
const (
	layerClient   = "transport.client"
	layerNet      = "transport.net"
	layerSwitch   = "transport.switch"
	layerQueue    = "switchdp"
	layerChain    = "ctrlplane"
	layerServer   = "lockserver"
	layerMove     = "rebalance"
	layerResidual = "residual"
)

// segment is one consecutive piece of a traced acquire.
type segment struct {
	layer      string
	start, end int64
}

// classify names the layer owning the interval between two consecutive
// events of one request, and the per-layer stage it samples ("" for
// none).
func classify(a, b event) (layer, stage string) {
	switch {
	case a.kind == evSubmit && b.kind == evClientOut:
		return layerClient, "flush_wait"
	case a.kind == evClientIn && b.kind == evGrant:
		return layerClient, "deliver"
	case a.kind == evClientOut && b.kind == evSwIn,
		a.kind == evSwOut && (a.via == outForward || a.via == viaOverflow) && b.kind == evSrvIn,
		a.kind == evSrvOut && b.kind == evSwIn,
		a.kind == evSwOut && a.via == outGrant && b.kind == evClientIn:
		return layerNet, "net"
	case a.kind == evSwIn && b.kind == evSwOut && a.member == b.member:
		if a.cycle == b.cycle {
			return layerSwitch, "residence"
		}
		return layerQueue, "queue_wait"
	case a.kind == evSwOut && a.via == outChain && b.kind == evSwIn && b.member > a.member:
		return layerChain, "chain_hop"
	case a.kind == evSrvIn && b.kind == evSrvOut:
		return layerServer, "server_residence"
	case a.kind == evSrvIn && a.via == viaOverflow && b.kind == evSwOut && b.via == outGrant:
		// Buffered at the server while the switch queue was full, pushed
		// back and granted by the switch: a wait for room in the queue.
		return layerQueue, ""
	case a.kind == evSrvIn && b.kind == evSwOut && b.via == outGrant,
		a.kind == evSwIn && b.kind == evSrvOut:
		// Queued at one residency, answered from the other: the lock
		// moved while the request waited in its queue.
		return layerMove, ""
	}
	return layerResidual, ""
}

// traceResult is the analysis of one traced window.
type traceResult struct {
	requests int64            // traced acquires with both ends seen
	totalNs  int64            // their summed latency
	selfNs   map[string]int64 // summed segment time per layer
	stages   map[string]*lat
	spans    [][]segment // per request, for the span file (bounded)
}

// maxSpanRequests bounds the span file.
const maxSpanRequests = 50_000

// analyze cuts every traced acquire into segments.
func analyze(evs []event) traceResult {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.lock != b.lock {
			return a.lock < b.lock
		}
		if a.txn != b.txn {
			return a.txn < b.txn
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return a.kind < b.kind
	})
	res := traceResult{selfNs: make(map[string]int64), stages: make(map[string]*lat)}
	stage := func(name string) *lat {
		l, ok := res.stages[name]
		if !ok {
			l = new(lat)
			res.stages[name] = l
		}
		return l
	}
	var path []event
	for i := 0; i < len(evs); {
		j := i
		for j < len(evs) && evs[j].lock == evs[i].lock && evs[j].txn == evs[i].txn {
			j++
		}
		path = requestPath(evs[i:j], path[:0])
		i = j
		if len(path) < 2 || path[0].kind != evSubmit || path[len(path)-1].kind != evGrant {
			continue
		}
		res.requests++
		res.totalNs += path[len(path)-1].t - path[0].t
		var segs []segment
		for k := 1; k < len(path); k++ {
			layer, st := classify(path[k-1], path[k])
			d := path[k].t - path[k-1].t
			res.selfNs[layer] += d
			if st != "" {
				stage(st).add(d)
			}
			if len(res.spans) < maxSpanRequests {
				segs = append(segs, segment{layer, path[k-1].t, path[k].t})
			}
		}
		if segs != nil {
			res.spans = append(res.spans, segs)
		}
	}
	return res
}

// requestPath keeps the first occurrence of each distinct event of one
// request (resent grants and retransmits repeat them), from its submit to
// its grant callback.
func requestPath(evs []event, path []event) []event {
	seen := make(map[[4]uint8]bool, len(evs))
	for _, e := range evs {
		if e.kind != evSubmit && len(path) == 0 {
			continue
		}
		k := [4]uint8{e.kind, uint8(e.member), e.op, e.via}
		if seen[k] {
			continue
		}
		seen[k] = true
		path = append(path, e)
		if e.kind == evGrant {
			break
		}
	}
	return path
}

// writeSpans writes the traced acquires as spans: one root "acquire" span
// per request and one child per segment, named by its layer.
func writeSpans(path string, res traceResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "request,span,parent,start_ns,end_ns")
	for i, segs := range res.spans {
		fmt.Fprintf(w, "%d,acquire,,%d,%d\n", i, segs[0].start, segs[len(segs)-1].end)
		for _, s := range segs {
			fmt.Fprintf(w, "%d,%s,acquire,%d,%d\n", i, s.layer, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRackWindow runs the traced window on a fresh rack and fills the
// per-layer metrics. w is the untraced window of the same run.
func tracedRackWindow(o options, wl rackWorkload, w windowResult, ls layerSet, r *report) error {
	every := uint32(1)
	if !wl.perTxn {
		every = 32 // rack-micro: trace 1 lock in 32, bounding the event volume
	}
	rec := newRecorder(every)
	tn := &tapNet{inner: transport.UDP, rec: rec}
	reg := obs.New(obs.Config{Stripes: 2})
	tm := &timedMover{}
	rk, _, err := setupRack(1, wl.spec, rackHooks{net: tn, reg: reg, mover: tm.wrap}, wl.firstLock)
	if err != nil {
		return err
	}
	tn.assignRoles(rk.tp)
	var sn0, sn1 *obs.Snapshot
	tw := rackWindow(o, rk, wl, rec, r, func(start bool) {
		if start {
			tn.resetCounts()
			sn0 = reg.Snapshot()
			tm.on.Store(true)
			rec.on.Store(true)
			return
		}
		rec.on.Store(false)
		tm.on.Store(false)
		sn1 = reg.Snapshot()
	})
	rk.close()

	// Socket counts.
	var evs []event
	var reads, writes, bytesOut, chainDg int64
	var cliFrames, cliOps, swFrames, swOps int64
	var writeNs lat
	for _, c := range tn.conns {
		c.mu.Lock()
		evs = append(evs, c.events...)
		reads += c.reads
		writes += c.writes
		bytesOut += c.bytesOut
		chainDg += c.chainDg
		switch c.role.Load() {
		case roleClient:
			cliFrames += c.framesOut
			cliOps += c.opsOut
		case roleSwitch:
			swFrames += c.framesOut
			swOps += c.opsOut
		}
		writeNs.merge(&c.writeNs)
		c.mu.Unlock()
	}
	evs = append(evs, rec.genEvents...)
	grants := float64(tw.grants)
	ls.set("transport.ops_per_frame.client", ratio(float64(cliOps), float64(cliFrames)))
	ls.set("transport.ops_per_frame.switch", ratio(float64(swOps), float64(swFrames)))
	ls.set("transport.syscalls_per_op", ratio(float64(reads+writes), grants))
	ls.set("transport.bytes_per_op", ratio(float64(bytesOut), grants))
	ls.add(pctNs("transport.write_ns.p50", &writeNs, 0.50))
	ls.set("ctrlplane.chain_datagrams_per_op", ratio(float64(chainDg), grants))
	ls.set("transport.client.resend_frac", ratio(float64(rec.resends), float64(rec.ops+rec.resends)))

	// Data-plane stages from the obs stripes.
	pass := sn1.Stage(obs.StageSwitchPass)
	ls.add(histPct("switchdp.pass_ns.p50", pass, 0.50), histPct("switchdp.pass_ns.p99", pass, 0.99))
	sq := sn1.Stage(obs.StageServerQueue)
	ls.add(histPct("lockserver.queue_wait_ns.p50", sq, 0.50), histPct("lockserver.queue_wait_ns.p99", sq, 0.99))
	ls.set("switchdp.resubmits_per_acquire", ratio(float64(sn1.Counter(obs.CtrResubmits)-sn0.Counter(obs.CtrResubmits)),
		float64(sn1.Counter(obs.CtrAcquires)-sn0.Counter(obs.CtrAcquires))))

	// Rebalancer timings.
	if wl.spec.rebalance {
		ls.add(pctNs("rebalance.move_ns.p50", &tm.move, 0.50), pctNs("rebalance.move_ns.p99", &tm.move, 0.99),
			pctNs("rebalance.measure_ns.p50", &tm.measure, 0.50))
	}

	// Acquire-path segments.
	res := analyze(evs)
	st := func(name string) *lat {
		if l, ok := res.stages[name]; ok {
			return l
		}
		return new(lat)
	}
	ls.add(pctNs("transport.client.flush_wait_ns.p50", st("flush_wait"), 0.50),
		pctNs("transport.client.flush_wait_ns.p99", st("flush_wait"), 0.99),
		pctNs("transport.client.deliver_ns.p50", st("deliver"), 0.50),
		pctNs("transport.switch.residence_ns.p50", st("residence"), 0.50),
		pctNs("transport.switch.residence_ns.p99", st("residence"), 0.99),
		pctNs("transport.net_ns.p50", st("net"), 0.50),
		pctNs("switchdp.queue_wait_ns.p50", st("queue_wait"), 0.50),
		pctNs("switchdp.queue_wait_ns.p99", st("queue_wait"), 0.99),
		pctNs("lockserver.residence_ns.p50", st("server_residence"), 0.50))
	if wl.spec.chain > 1 {
		ls.add(pctNs("ctrlplane.chain_hop_ns.p50", st("chain_hop"), 0.50),
			pctNs("ctrlplane.chain_hop_ns.p99", st("chain_hop"), 0.99))
	}
	per := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(res.requests)) }
	ls.set("self.acquire_us", per(res.totalNs))
	for name, layer := range map[string]string{
		"self.transport.client_us": layerClient, "self.transport.net_us": layerNet,
		"self.transport.switch_us": layerSwitch, "self.switchdp_us": layerQueue,
		"self.ctrlplane_us": layerChain, "self.lockserver_us": layerServer, "self.rebalance_us": layerMove,
		"self.residual_us": layerResidual,
	} {
		ls.set(name, per(res.selfNs[layer]))
	}
	ls.add(overheadMetrics(w, tw)...)
	r.info = append(r.info, metric{name: "traced.requests", unit: "count", value: float64(res.requests)},
		metric{name: "traced.ops_per_s", unit: "1/s", value: float64(tw.grants) / tw.dur.Seconds()})

	spanPath := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.spans.csv", o.workload, o.seed))
	if err := writeSpans(spanPath, res); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.info = append(r.info, metric{name: "traced.span_requests_written", unit: "count", value: float64(len(res.spans))})
	return nil
}
