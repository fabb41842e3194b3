package ridgewalker_test

// Race/stress battery for the Service lifecycle: session eviction churn
// under concurrent Submit and Stream, and Close racing in-flight work.
// These tests are written to run under `go test -race` (CI runs them so)
// and assert ordering invariants that plain unit tests cannot see:
// evicted sessions never serve stale state, a closing service either
// completes a request correctly or rejects it cleanly, and no
// Submit/Stream/Close interleaving deadlocks or leaks a result to the
// wrong requester.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ridgewalker"
)

// raceIterations keeps the stress loops meaningful under -race without
// dominating -short CI time.
func raceIterations(t *testing.T) int {
	if testing.Short() {
		return 8
	}
	return 25
}

// TestServiceEvictionChurnConcurrent hammers a 2-entry session cache with
// 8 distinct walk configurations from concurrent submitters and
// streamers: every request forces cache churn, and every reply must be
// byte-identical to a solo run of its configuration — eviction must never
// tear down a session another request is using or resurrect stale state.
func TestServiceEvictionChurnConcurrent(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxSessions: 2,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const cfgs = 8
	qs, err := ridgewalker.RandomQueries(g, ridgewalker.DefaultWalkConfig(ridgewalker.URW), 60, 23)
	if err != nil {
		t.Fatal(err)
	}
	makeCfg := func(i int) ridgewalker.WalkConfig {
		cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
		cfg.WalkLength = 12
		cfg.Seed = uint64(i + 1)
		return cfg
	}
	want := make([]*ridgewalker.Result, cfgs)
	for i := range want {
		want[i], err = ridgewalker.Walk(g, qs, makeCfg(i))
		if err != nil {
			t.Fatal(err)
		}
	}

	iters := raceIterations(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 2*cfgs)
	for i := 0; i < cfgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := makeCfg(i)
			for n := 0; n < iters; n++ {
				got, err := svc.Submit(context.Background(), cfg, qs)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(got.Paths, want[i].Paths) {
					errCh <- errors.New("submit result differs after eviction churn")
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := makeCfg(i)
			for n := 0; n < iters; n++ {
				paths := make([][]ridgewalker.VertexID, len(qs))
				err := svc.Stream(context.Background(), cfg, qs, func(w ridgewalker.WalkOutput) error {
					cp := make([]ridgewalker.VertexID, len(w.Path))
					copy(cp, w.Path)
					paths[w.Query] = cp
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(paths, want[i].Paths) {
					errCh <- errors.New("stream result differs after eviction churn")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestServiceShardedBackendConcurrent runs the same churn against the
// cpu-sharded backend, so session eviction also exercises the shard
// engine's per-run goroutine lifecycle under -race. A Service takes the
// backend's default shard count (GOMAXPROCS, capped at 8); the cohort
// width is pinned.
func TestServiceShardedBackendConcurrent(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu-sharded",
		Cohort:      16,
		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	qs, err := ridgewalker.RandomQueries(g, ridgewalker.DefaultWalkConfig(ridgewalker.URW), 80, 29)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	iters := raceIterations(t)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
			cfg.WalkLength = 10
			cfg.Seed = uint64(i%3 + 1) // 3 cfgs over a 2-entry cache
			want, err := ridgewalker.Walk(g, qs, cfg)
			if err != nil {
				errCh <- err
				return
			}
			for n := 0; n < iters; n++ {
				got, err := svc.Submit(context.Background(), cfg, qs)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					errCh <- errors.New("sharded submit differs under churn")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestServiceCloseRacesInflight closes services while submissions and
// streams are in flight: every call must either return a correct result
// or the "service is closed" error — never a torn result, a deadlock, or
// a panic — and Close must return exactly once per service with all
// pending groups drained.
func TestServiceCloseRacesInflight(t *testing.T) {
	g := serviceTestGraph(t)
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.PPR)
	cfg.WalkLength = 12
	cfg.Seed = 3
	qs, err := ridgewalker.RandomQueries(g, cfg, 40, 31)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ridgewalker.Walk(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := raceIterations(t)
	for round := 0; round < rounds; round++ {
		svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
			Backend: "cpu",
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		const callers = 6
		var wg sync.WaitGroup
		var served, rejected atomic.Int64
		// Worst case: one error per caller plus both Close calls erroring.
		errCh := make(chan error, callers+2)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				if i%2 == 0 {
					var got *ridgewalker.Result
					got, err = svc.Submit(context.Background(), cfg, qs)
					if err == nil && !reflect.DeepEqual(got.Paths, want.Paths) {
						errCh <- errors.New("torn submit result during Close")
						return
					}
				} else {
					var steps int64
					err = svc.Stream(context.Background(), cfg, qs, func(w ridgewalker.WalkOutput) error {
						steps += w.Steps
						return nil
					})
					if err == nil && steps != want.Steps {
						errCh <- errors.New("torn stream result during Close")
						return
					}
				}
				switch {
				case err == nil:
					served.Add(1)
				case strings.Contains(err.Error(), "closed"):
					rejected.Add(1)
				default:
					errCh <- err
				}
			}(i)
		}
		// Race Close against the callers; a second Close must be a no-op.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
			if err := svc.Close(); err != nil {
				errCh <- err
			}
			if err := svc.Close(); err != nil {
				errCh <- err
			}
		}()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if served.Load()+rejected.Load() != callers {
			t.Fatalf("round %d: %d served + %d rejected != %d callers",
				round, served.Load(), rejected.Load(), callers)
		}
		// After Close everything is rejected.
		if _, err := svc.Submit(context.Background(), cfg, qs); err == nil {
			t.Fatal("submit after Close accepted")
		}
	}
}

// TestServiceMetricsUnderConcurrency pins the metrics invariant the
// stress exposes: served-query totals must equal the sum of successful
// requests exactly, even when requests race eviction and coalescing.
func TestServiceMetricsUnderConcurrency(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	qs, err := ridgewalker.RandomQueries(g, ridgewalker.DefaultWalkConfig(ridgewalker.URW), 50, 37)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 10
	iters := raceIterations(t)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
			cfg.WalkLength = 8
			cfg.Seed = uint64(i%4 + 1)
			for n := 0; n < iters; n++ {
				if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
					failed.Add(1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d callers failed", failed.Load())
	}
	m := svc.Metrics()
	c := m.PerAlgorithm["URW"]
	wantQueries := int64(callers) * int64(iters) * int64(len(qs))
	if c.Queries != wantQueries || c.Requests != int64(callers)*int64(iters) {
		t.Fatalf("metrics lost work under concurrency: %+v, want %d queries", c, wantQueries)
	}
	if b := m.PerBackend["cpu"]; b.Queries != wantQueries {
		t.Fatalf("per-backend metrics lost work: %+v", b)
	}
}

// TestServiceBurstFlushStress floods the service with a burst of tiny
// batches across many distinct walk configurations at MaxBatch=1, so
// every Submit triggers an immediate flush. Group execution must run on
// the fixed dispatcher pool — bounded goroutines with backpressure, not
// one spawned goroutine per flushed group — while every reply stays
// byte-identical to a solo run of its configuration and Close still
// drains cleanly mid-burst.
func TestServiceBurstFlushStress(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:  "cpu",
		Workers:  2,
		MaxBatch: 1, // every submission fills its group: maximal flush rate
	})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ridgewalker.RandomQueries(g, ridgewalker.DefaultWalkConfig(ridgewalker.URW), 8, 41)
	if err != nil {
		t.Fatal(err)
	}
	const cfgs = 12
	makeCfg := func(i int) ridgewalker.WalkConfig {
		cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
		cfg.WalkLength = 6 + i%5
		cfg.Seed = uint64(i + 1)
		return cfg
	}
	want := make([]*ridgewalker.Result, cfgs)
	for i := range want {
		res, err := ridgewalker.Walk(g, qs, makeCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const callers = 16
	iters := raceIterations(t)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				i := (c + n) % cfgs
				res, err := svc.Submit(context.Background(), makeCfg(i), qs)
				if err != nil {
					bad.Add(1)
					return
				}
				if !reflect.DeepEqual(res.Paths, want[i].Paths) {
					bad.Add(1)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d callers saw errors or wrong paths under burst flush", bad.Load())
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Submissions after Close must be rejected, not queued to dead workers.
	if _, err := svc.Submit(context.Background(), makeCfg(0), qs); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}
