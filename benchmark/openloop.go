package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// dueTime is when request i of an open loop at rate requests per second
// is due: arrivals are evenly spaced from start.
func dueTime(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// openLoop offers n requests at a fixed rate regardless of how fast they
// complete. The calling goroutine is the only pacer: it sleeps until each
// request is due and starts do(i, due) on a goroutine of its own, so a
// blocked request never delays the next arrival. do must time the request
// from due, which charges a stall to every request that arrived during
// it. late[i] is how long after its due time request i was started.
//
// At most maxOutstanding requests are in flight: one due beyond that is
// not sent, and dropped[i] is set, so a collapsing system cannot exhaust
// the host. openLoop returns when every started request has finished.
func openLoop(start time.Time, rate float64, n, maxOutstanding int, do func(i int, due time.Time)) (late []time.Duration, dropped []bool) {
	late = make([]time.Duration, n)
	dropped = make([]bool, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := dueTime(start, rate, i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if outstanding.Load() >= int64(maxOutstanding) {
			dropped[i] = true
			continue
		}
		late[i] = time.Since(due)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer outstanding.Add(-1)
			do(i, due)
		}(i)
	}
	wg.Wait()
	return late, dropped
}
