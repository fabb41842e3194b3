package ridgewalker_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ridgewalker"
)

// ringGraph builds a directed cycle: every vertex has exactly one
// out-neighbor, so URW walks never hit a sink and always run the full
// configured length — engine time is exactly schedulable, which the
// cancellation test below needs.
func ringGraph(t testing.TB, n int) *ridgewalker.Graph {
	t.Helper()
	edges := make([]ridgewalker.Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = ridgewalker.Edge{Src: ridgewalker.VertexID(v), Dst: ridgewalker.VertexID((v + 1) % n)}
	}
	g, err := ridgewalker.NewGraph(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestServiceCanceledSubmitShedsEngineWork pins the deadline-propagation
// bugfix: runGroup used to run every batch under context.Background(), so
// a canceled Submit kept burning engine time until the whole batch
// finished. The batch here is big enough that completing it takes
// seconds (the ring graph guarantees full-length walks); after the only
// submitter cancels, the group context must cancel too and the engine
// must shed the remaining steps at its next cooperative checkpoint — so
// Submit plus a full drain (Close) finishes orders of magnitude sooner
// than the walk would have, and the whole batch is counted as expired.
func TestServiceCanceledSubmitShedsEngineWork(t *testing.T) {
	g := ringGraph(t, 1024)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu-pipelined"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 500000 // 64M steps across the batch: ~5s of engine time
	cfg.Seed = 7
	qs, err := ridgewalker.RandomQueries(g, cfg, 128, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err = svc.Submit(ctx, cfg, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel: %v, want context.Canceled", err)
	}
	if err := svc.Close(); err != nil { // returns only after the group drains
		t.Fatal(err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("canceled batch held the engine for %v — cancellation did not propagate", el)
	}
	m := svc.Metrics()
	if exp := m.PerLane[ridgewalker.LaneInteractive.String()].Expired; exp != int64(len(qs)) {
		t.Fatalf("expired queries = %d, want %d (the whole abandoned batch)", exp, len(qs))
	}
}

// TestServiceCloseUnderSubmitBurst pins Close's contract under load: with
// submitters racing Close across many distinct configurations (so groups
// are queued, pending, and flushing at the instant the service closes),
// every Submit must return — a result, the typed ErrServiceClosed, or an
// admission shed — and Close must drain without deadlocking or dropping
// a reply. Run under -race in CI.
func TestServiceCloseUnderSubmitBurst(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxInFlight: 512, // small static budget: the burst also exercises shedding
		MaxBatch:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 30
	qs, err := ridgewalker.RandomQueries(g, cfg, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				c := cfg
				c.Seed = uint64(1 + i*40 + j) // distinct groups: spread across pending/flushing
				_, err := svc.Submit(context.Background(), c, qs)
				switch {
				case err == nil:
				case errors.Is(err, ridgewalker.ErrServiceClosed):
				case errors.Is(err, ridgewalker.ErrOverloaded):
				default:
					t.Errorf("Submit during close burst: %v", err)
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked under submit burst")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a submitter never got a reply after Close")
	}
}

// TestServiceLaneStarvationFreedom floods the interactive lane through a
// single-dispatcher service and asserts a lone bulk request still
// completes: the weighted round-robin drain guarantees every positively
// weighted lane a share of each round, so heavy interactive traffic may
// delay bulk work but can never park it forever.
func TestServiceLaneStarvationFreedom(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:           "cpu",
		Workers:           1, // one dispatcher: drain order is exactly the WRR order
		MaxBatch:          1, // every request is its own group
		InteractiveWeight: 4,
		BulkWeight:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	icfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	icfg.WalkLength = 50
	icfg.Lane = ridgewalker.LaneInteractive
	iqs, err := ridgewalker.RandomQueries(g, icfg, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := icfg
			for j := 0; !stop.Load(); j++ {
				c.Seed = uint64(1 + i*1000003 + j) // distinct groups, queued faster than one worker drains
				if _, err := svc.Submit(context.Background(), c, iqs); err == nil {
					served.Add(1)
				}
			}
		}()
	}
	defer func() { stop.Store(true); wg.Wait() }()
	time.Sleep(10 * time.Millisecond) // let the interactive queue build
	bcfg := icfg
	bcfg.Lane = ridgewalker.LaneBulk
	bcfg.Seed = 424242
	done := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), bcfg, iqs)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bulk request failed under interactive flood: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bulk request starved behind interactive traffic")
	}
	if served.Load() == 0 {
		t.Fatal("interactive flood served nothing — the test exercised no contention")
	}
	m := svc.Metrics()
	for _, lane := range []ridgewalker.Lane{ridgewalker.LaneInteractive, ridgewalker.LaneBulk} {
		if m.PerLane[lane.String()].Admitted == 0 {
			t.Fatalf("no admissions recorded for the %s lane", lane)
		}
	}
}

// TestServiceTenantQuotaIsolation pins per-tenant fairness: a tenant that
// exhausts its token bucket is shed with ErrQuotaExceeded while an
// unlimited tenant's traffic is untouched — one noisy neighbor cannot
// spend another tenant's capacity.
func TestServiceTenantQuotaIsolation(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend: "cpu",
		TenantQuotas: map[string]ridgewalker.TenantQuota{
			// One request's worth of burst and a refill rate that is
			// negligible at test timescale: the second request must shed.
			"abuser": {QPS: 0.001, Burst: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 20
	cfg.Seed = 5
	qs, err := ridgewalker.RandomQueries(g, cfg, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	abuser := cfg
	abuser.Tenant = "abuser"
	if _, err := svc.Submit(ctx, abuser, qs); err != nil {
		t.Fatalf("abuser's first request (within burst): %v", err)
	}
	if _, err := svc.Submit(ctx, abuser, qs); !errors.Is(err, ridgewalker.ErrQuotaExceeded) {
		t.Fatalf("abuser's second request: %v, want ErrQuotaExceeded", err)
	}
	good := cfg
	good.Tenant = "good"
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(ctx, good, qs); err != nil {
			t.Fatalf("good tenant request %d failed beside a throttled neighbor: %v", i, err)
		}
	}
	m := svc.Metrics()
	if shed := m.PerTenant["abuser"].Shed; shed != int64(len(qs)) {
		t.Fatalf("abuser shed = %d queries, want %d", shed, len(qs))
	}
	if shed := m.PerTenant["good"].Shed; shed != 0 {
		t.Fatalf("good tenant shed = %d queries, want 0", shed)
	}
}

// TestServiceAdmissionPreservesTrajectories asserts admission control is
// trajectory-neutral: the same queries produce byte-identical paths with
// the feedback budget enabled, with admission effectively disabled
// (MaxInFlight 0), across lanes and tenants — all of it equal to the
// golden engine. Lane, tenant, and budget steer scheduling, never walks.
func TestServiceAdmissionPreservesTrajectories(t *testing.T) {
	g := serviceTestGraph(t)
	variants := []struct {
		name string
		scfg ridgewalker.ServiceConfig
		lane ridgewalker.Lane
	}{
		{"auto-budget", ridgewalker.ServiceConfig{
			Backend:     "cpu",
			MaxInFlight: ridgewalker.AutoInFlight,
			TenantQuota: ridgewalker.TenantQuota{QPS: 1e9, Burst: 1e9},
		}, ridgewalker.LaneInteractive},
		{"admission-off", ridgewalker.ServiceConfig{Backend: "cpu"}, ridgewalker.LaneBulk},
	}
	for _, alg := range []ridgewalker.Algorithm{ridgewalker.URW, ridgewalker.DeepWalk} {
		cfg := ridgewalker.DefaultWalkConfig(alg)
		cfg.WalkLength = 20
		cfg.Seed = 31
		qs, err := ridgewalker.RandomQueries(g, cfg, 200, 37)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ridgewalker.Walk(g, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", alg, v.name), func(t *testing.T) {
				svc, err := ridgewalker.NewService(g, v.scfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				c := cfg
				c.Lane = v.lane
				c.Tenant = "tenant-" + v.name
				got, err := svc.Submit(context.Background(), c, qs)
				if err != nil {
					t.Fatal(err)
				}
				if got.Steps != want.Steps || !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatal("admitted walk differs from the golden engine")
				}
			})
		}
	}
}

// TestServiceSubmitRejectsExpiredDeadline pins fail-fast shedding on the
// deadline-feasibility gate: once the controller has observed a service
// rate, a submission whose deadline cannot possibly be met is rejected
// with ErrOverloaded at the front door instead of being walked for
// nobody.
func TestServiceSubmitRejectsExpiredDeadline(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxInFlight: ridgewalker.AutoInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 40
	cfg.Seed = 3
	qs, err := ridgewalker.RandomQueries(g, cfg, 64, 19)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate the service rate with a few normal submissions.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the engine busy so queued work exists, then submit with an
	// already-expired deadline: predicted wait (> 0) exceeds headroom (0).
	var wg sync.WaitGroup
	busy := cfg
	busy.WalkLength = 200000
	busy.Seed = 99
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = svc.Submit(context.Background(), busy, qs)
	}()
	defer wg.Wait()
	// The busy request is dispatched the moment it is admitted, so wait
	// until it holds its slots: only queued work makes the wait nonzero.
	deadline := time.Now().Add(10 * time.Second)
	for svc.AdmissionStatus().InFlight < len(qs) {
		if time.Now().After(deadline) {
			t.Fatal("the busy request was never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}
	deadline = time.Now().Add(25 * time.Millisecond)
	for {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_, err = svc.Submit(ctx, cfg, qs)
		cancel()
		if errors.Is(err, ridgewalker.ErrOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired-deadline submission was never shed (last err: %v)", err)
		}
		// The busy batch may not have been admitted yet; retry briefly.
		time.Sleep(time.Millisecond)
	}
}

// TestServiceClosedLoopNeverRefusesItself pins the deliver ordering: a
// request's admission slots are released before its reply is sent, so a
// closed-loop caller that resubmits the moment it hears back — with a
// budget of exactly one request — is never refused on account of the
// slots its own finished request still held.
func TestServiceClosedLoopNeverRefusesItself(t *testing.T) {
	g := ringGraph(t, 256)
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 4
	cfg.Seed = 11
	qs, err := ridgewalker.RandomQueries(g, cfg, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxInFlight: len(qs),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 2000; i++ {
		if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
			t.Fatalf("closed-loop submit %d refused: %v", i, err)
		}
	}
}
