package main

import (
	"math/rand"

	"netlock/internal/tpcc"
	"netlock/internal/wire"
)

// Inputs are a pure function of the run seed: the rack-micro slots draw
// from per-slot splitmix64 streams, and the TPC-C callers replay pools
// generated up front, one tpcc.Workload per caller (NextTxn bumps the
// workload's unsynchronised Stats counters).

// microLocks and microSlots size rack-micro: 1024 switch-resident locks and
// a fixed window of 256 in-flight acquires.
const (
	microLocks = 1024
	microSlots = 256
)

// microStream returns slot's request stream for seed.
func microStream(seed int64, slot int) splitmix64 {
	s := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(slot)*0xd1b54a32d192ed03)
	s.next()
	return s
}

// nextMicroOp draws one rack-micro request: a uniform lock in
// 1..microLocks, exclusive with probability 1/10.
func nextMicroOp(s *splitmix64) (lock uint32, excl bool) {
	r := s.next()
	return 1 + uint32(r%microLocks), (r>>32)%10 == 0
}

// txnPool is a flattened list of generated transactions: transaction k
// takes locks lock[off[k]:off[k+1]] in order, with the matching dense
// oracle indices and modes.
type txnPool struct {
	lock []uint32
	idx  []int32
	excl []bool
	off  []int32
}

func (p *txnPool) txns() int { return len(p.off) - 1 }

func (p *txnPool) span(k int) (lo, hi int) {
	k %= p.txns()
	return int(p.off[k]), int(p.off[k+1])
}

// tpccConfig is the TPC-C mix both tpcc workloads run: the paper's
// high-contention setting for one client node (one warehouse), with no
// think time so the lock manager is the whole transaction.
func tpccConfig() tpcc.Config {
	cfg := tpcc.HighContention(1)
	cfg.ThinkNs = 0
	return cfg
}

// genTPCCPools generates callers pools of perPool transactions each and
// returns them with the number of distinct locks they touch.
func genTPCCPools(seed int64, callers, perPool int) ([]*txnPool, int) {
	index := make(map[uint32]int32)
	pools := make([]*txnPool, callers)
	for c := range pools {
		wl := tpcc.New(tpccConfig())
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		p := &txnPool{off: []int32{0}}
		for k := 0; k < perPool; k++ {
			spec := wl.NextTxn(0, rng)
			for _, r := range spec.Locks {
				i, ok := index[r.LockID]
				if !ok {
					i = int32(len(index))
					index[r.LockID] = i
				}
				p.lock = append(p.lock, r.LockID)
				p.idx = append(p.idx, i)
				p.excl = append(p.excl, r.Mode == wire.Exclusive)
			}
			p.off = append(p.off, int32(len(p.lock)))
		}
		pools[c] = p
	}
	return pools, len(index)
}
