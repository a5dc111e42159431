package qserve

import "sync/atomic"

// admission is the executor's queue-or-shed gate: up to maxConcurrent
// holders at once, up to maxQueue waiters, everything beyond shed
// immediately with ErrOverloaded.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
	served   atomic.Uint64
	shed     atomic.Uint64
}

// newAdmission builds a gate for maxConcurrent concurrent holders and
// maxQueue waiters (both already defaulted by the caller).
func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
	}
}

// Acquire takes a slot, queueing when none is free and there is queue
// room, shedding with ErrOverloaded otherwise.
func (a *admission) Acquire() error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
		if a.waiting.Add(1) > a.maxQueue {
			a.waiting.Add(-1)
			a.shed.Add(1)
			return ErrOverloaded
		}
		a.slots <- struct{}{}
		a.waiting.Add(-1)
		return nil
	}
}

// Release frees the slot and counts the query as served.
func (a *admission) Release() {
	<-a.slots
	a.served.Add(1)
}

// Counters returns a point-in-time view of gate activity.
func (a *admission) Counters() Counters {
	return Counters{
		Served:   a.served.Load(),
		Shed:     a.shed.Load(),
		Inflight: len(a.slots),
		Waiting:  int(a.waiting.Load()),
	}
}
