package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// holderOracle checks mutual exclusion from the generator's side. Each
// lock the run can touch has a dense index (assigned when the inputs are
// generated) and one atomic word: 0 free, n > 0 held shared by n
// transactions, -1 held exclusive. A grant is recorded when the generator
// observes it and a release just before the generator hands the lock back,
// so every recorded hold lies inside the system's real hold; two recorded
// holds that conflict therefore prove a real double grant.
type holderOracle struct {
	state []atomic.Int64

	mu         sync.Mutex
	violations []string
	nviol      atomic.Int64
}

func newHolderOracle(locks int) *holderOracle {
	return &holderOracle{state: make([]atomic.Int64, locks)}
}

// maxViolationMsgs bounds the messages kept; the count is exact.
const maxViolationMsgs = 16

func (o *holderOracle) violate(format string, args ...any) {
	if o.nviol.Add(1) > maxViolationMsgs {
		return
	}
	o.mu.Lock()
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// granted records that the generator now holds lock (dense index i).
func (o *holderOracle) granted(lock uint32, i int32, excl bool) {
	w := &o.state[i]
	if excl {
		if !w.CompareAndSwap(0, -1) {
			o.violate("exclusive grant of lock %d while held (state %d)", lock, w.Load())
		}
		return
	}
	for {
		v := w.Load()
		if v < 0 {
			o.violate("shared grant of lock %d while held exclusive", lock)
			return
		}
		if w.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// released records that the generator is about to give lock back.
func (o *holderOracle) released(lock uint32, i int32, excl bool) {
	w := &o.state[i]
	if excl {
		if !w.CompareAndSwap(-1, 0) {
			o.violate("exclusive release of lock %d not held exclusive (state %d)", lock, w.Load())
		}
		return
	}
	if v := w.Add(-1); v < 0 {
		o.violate("shared release of lock %d not held shared (state %d)", lock, v)
	}
}

// held returns how many locks are still recorded as held.
func (o *holderOracle) held() int {
	n := 0
	for i := range o.state {
		if o.state[i].Load() != 0 {
			n++
		}
	}
	return n
}

// report returns the violation count and the kept messages.
func (o *holderOracle) report() (int64, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nviol.Load(), append([]string(nil), o.violations...)
}

// ledger is the drain check's accounting: every attempt must end in
// exactly one grant or one counted failure.
type ledger struct {
	attempts atomic.Int64
	grants   atomic.Int64
	failures atomic.Int64
}

// balance returns an error when the ledger does not close.
func (l *ledger) balance() error {
	a, g, f := l.attempts.Load(), l.grants.Load(), l.failures.Load()
	if a != g+f {
		return fmt.Errorf("drain: %d attempts ended in %d grants + %d failures", a, g, f)
	}
	return nil
}
