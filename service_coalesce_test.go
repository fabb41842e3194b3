package ridgewalker

// Coalescer tests: a key with a free slot dispatches at once, a busy key
// gathers its arrivals into one group that runs when a slot frees, and
// one key's long run never holds another key's requests. In-package
// so the tests can hold the dispatcher pool (pauseFlush) and see what is
// pending, which makes batch composition exact instead of timing-bound.

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// rmatTestGraph is a skewed, directed graph with weights and labels, so
// walks dead-end at different lengths.
func rmatTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateRMAT(Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatheredRequests counts the requests waiting in pending groups and in
// groups queued for a dispatcher worker.
func gatheredRequests(s *Service) int {
	n := 0
	s.mu.Lock()
	for _, g := range s.pending {
		n += len(g.requests)
	}
	s.mu.Unlock()
	s.flushMu.Lock()
	for _, q := range s.flushQs {
		for _, j := range q {
			n += len(j.grp.requests)
		}
	}
	s.flushMu.Unlock()
	return n
}

// submitAll submits every request concurrently under cfg. With the
// dispatcher held, it waits until all of them have joined a pending or
// queued group, calls held (if not nil) and then releases it, so the
// groups they form depend only on arrival order and MaxBatch. Replies
// come back in request order.
func submitAll(t *testing.T, svc *Service, cfg WalkConfig, reqs [][]Query, held func()) ([]*Result, []error) {
	t.Helper()
	svc.pauseFlush()
	defer svc.resumeFlush()
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, qs := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.Submit(context.Background(), cfg, qs)
		}()
		if i == 0 {
			// The first request dispatches alone and keeps its key busy;
			// everything after it must find the key running.
			waitFor(t, "the first request to queue", func() bool { return gatheredRequests(svc) == 1 })
		}
	}
	waitFor(t, "every request to gather", func() bool { return gatheredRequests(svc) == len(reqs) })
	if held != nil {
		held()
	}
	svc.resumeFlush()
	wg.Wait()
	return results, errs
}

// splitQueries draws n·per queries for cfg and cuts them into n requests.
func splitQueries(t *testing.T, g *Graph, cfg WalkConfig, n, per int) [][]Query {
	t.Helper()
	all, err := RandomQueries(g, cfg, n*per, 23)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([][]Query, n)
	for r := range reqs {
		reqs[r] = all[r*per : (r+1)*per]
	}
	return reqs
}

// checkGolden fails the test unless every reply equals Walk on its
// request's queries.
func checkGolden(t *testing.T, g *Graph, cfg WalkConfig, reqs [][]Query, got []*Result, errs []error) {
	t.Helper()
	for r, qs := range reqs {
		if errs[r] != nil {
			t.Fatalf("request %d: %v", r, errs[r])
		}
		want, err := Walk(g, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[r].Steps != want.Steps || !reflect.DeepEqual(got[r].Paths, want.Paths) {
			t.Fatalf("request %d differs from the golden engine", r)
		}
	}
}

// TestServiceConcurrentDeterminism submits many concurrent requests that
// coalesce into shared batches — the groups behind the first request
// split at MaxBatch — and checks every requester gets exactly the result
// a solo run would produce: batching must never bleed across requests.
func TestServiceConcurrentDeterminism(t *testing.T) {
	g := rmatTestGraph(t)
	const requests, per = 24, 120
	svc, err := NewService(g, ServiceConfig{
		Backend:          "cpu",
		MaxBatch:         512,
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 15
	cfg.Seed = 7
	reqs := splitQueries(t, g, cfg, requests, per)
	got, errs := submitAll(t, svc, cfg, reqs, nil)
	checkGolden(t, g, cfg, reqs, got, errs)
	m := svc.Metrics()
	c := m.PerAlgorithm["URW"]
	if c.Requests != requests || c.Queries != per*requests {
		t.Fatalf("metrics: %+v", c)
	}
	// The first request runs alone; the other 23 fill 512-query groups of
	// five (600 queries) behind it, and the last three run together.
	if c.Batches != 6 {
		t.Fatalf("%d batches for %d requests, want 6", c.Batches, requests)
	}
	if m.PerBackend["cpu"].Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

// TestServiceReplyOwnsItsPaths pins the dispatch rule for a session that
// serializes its runs, and that a coalesced request's reply holds its
// paths in storage of its own. The blocker finds its key idle and
// dispatches alone; the four requests that arrive while it runs gather
// into one group, which dispatches when the blocker finishes: exactly
// two batches, every reply byte-identical to Walk. The engine packs a
// batch's paths into shared slabs in the order walks finish, and a
// caller that keeps one reply must not keep its co-batched strangers'
// paths alive with it.
func TestServiceReplyOwnsItsPaths(t *testing.T) {
	g := rmatTestGraph(t)
	const requests, per = 4, 100
	for _, backend := range []string{"cpu", "cpu-pipelined"} {
		t.Run(backend, func(t *testing.T) {
			svc, err := NewService(g, ServiceConfig{Backend: backend, WatchdogInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			cfg := DefaultWalkConfig(URW)
			cfg.WalkLength = 15
			cfg.Seed = 7
			reqs := splitQueries(t, g, cfg, 1+requests, per)
			got, errs := submitAll(t, svc, cfg, reqs, nil)
			checkGolden(t, g, cfg, reqs, got, errs)
			if b := svc.Metrics().PerAlgorithm["URW"].Batches; b != 2 {
				t.Fatalf("%d batches, want 2 (the blocker, then one coalesced group)", b)
			}
			for r := 1; r <= requests; r++ {
				// One buffer per reply: every path ends where the next
				// begins, and none has room to spare.
				for i, p := range got[r].Paths {
					if cap(p) != len(p) {
						t.Fatalf("request %d path %d: cap %d beyond len %d", r, i, cap(p), len(p))
					}
					if i+1 < len(got[r].Paths) {
						end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(p)), len(p)*int(unsafe.Sizeof(p[0])))
						if next := unsafe.Pointer(unsafe.SliceData(got[r].Paths[i+1])); next != end {
							t.Fatalf("request %d: path %d does not follow path %d in one buffer", r, i+1, i)
						}
					}
				}
			}
		})
	}
}

// TestServiceConcurrentSessionOverlapsRuns pins the rule's exception: a
// cpu-sharded session runs batches side by side, so its key takes one
// slot per dispatcher worker before it gathers. With two workers held,
// the blocker and one more request dispatch as groups of their own and
// the other three gather into a third.
func TestServiceConcurrentSessionOverlapsRuns(t *testing.T) {
	g := rmatTestGraph(t)
	svc, err := NewService(g, ServiceConfig{Backend: "cpu-sharded", Workers: 2, WatchdogInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 15
	cfg.Seed = 7
	reqs := splitQueries(t, g, cfg, 5, 50)
	got, errs := submitAll(t, svc, cfg, reqs, func() {
		queued := 0
		svc.flushMu.Lock()
		for _, q := range svc.flushQs {
			queued += len(q)
		}
		svc.flushMu.Unlock()
		if queued != 2 {
			t.Errorf("%d groups dispatched, want 2 (one per worker)", queued)
		}
	})
	checkGolden(t, g, cfg, reqs, got, errs)
	if b := svc.Metrics().PerAlgorithm["URW"].Batches; b != 3 {
		t.Fatalf("%d batches, want 3 (two alone, then one coalesced group)", b)
	}
}

// TestServiceBusyKeyDoesNotHoldOthers pins that the busy state is per
// key: while key A runs a long walk, a request on key B (another seed)
// dispatches at once on a free worker and returns before A does.
func TestServiceBusyKeyDoesNotHoldOthers(t *testing.T) {
	g := faultTestGraph(t) // undirected: every walk runs its full length
	svc, err := NewService(g, ServiceConfig{Backend: "cpu-pipelined", Workers: 2, WatchdogInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	long := DefaultWalkConfig(URW)
	long.WalkLength = 200000
	long.Seed = 1
	qs, err := RandomQueries(g, long, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		_, _ = svc.Submit(ctx, long, qs)
	}()
	waitFor(t, "key A to dispatch", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.running) == 1
	})
	short := DefaultWalkConfig(URW)
	short.WalkLength = 20
	short.Seed = 2
	want, err := Walk(g, qs, short)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Submit(context.Background(), short, qs)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-aDone:
		t.Fatal("key B returned only after key A's long run finished")
	default:
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatal("key B's reply differs from the golden engine")
	}
	cancel() // shed A's remaining steps
	<-aDone
}
