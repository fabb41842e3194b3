package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"ridgewalker/internal/fault"
)

// errStopped is returned by a worker to bail out quietly once stopped()
// reports true; it is never surfaced to callers.
var errStopped = errors.New("exec: stopped")

// errClosed fails runs on a closed session.
var errClosed = errors.New("exec: session is closed")

// runChunked is the CPU sessions' shared fan-out scaffolding: it
// partitions [0, n) into contiguous per-worker chunks and runs each chunk
// on its own goroutine through run(worker, lo, hi, stopped). run should
// poll stopped() periodically and return errStopped once it reports true
// — the context was cancelled or another worker failed. The first real
// error wins; otherwise the context error (if any) is returned.
func runChunked(ctx context.Context, n, workers int, run func(w, lo, hi int, stopped func() bool) error) error {
	var (
		stop     atomic.Bool
		firstErr error
		errMu    sync.Mutex
		wg       sync.WaitGroup
	)
	stopped := func() bool { return stop.Load() || ctx.Err() != nil }
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Panic firewall: a crash in one worker's chunk (walker bug,
			// corrupted row, injected fault) becomes a typed engine fault
			// that fails the batch, never the process.
			err := fault.Contain("exec-worker", func() error {
				return run(w, lo, hi, stopped)
			})
			if err != nil && err != errStopped {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
