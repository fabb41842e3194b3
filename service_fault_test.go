package ridgewalker

// Fault-isolation tests: the chaos matrix (every injection point × the
// CPU engine family, error and panic modes), the circuit breaker's
// demote-then-restore lifecycle, the watchdog, query quarantine, EDF
// flush ordering, per-chunk stream admission leases, and the
// CompactGraph budget handoff. In-package so the tests can reach the
// flush queue, the fault registry, and test-only backends.

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ridgewalker/internal/exec"
	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
)

func faultTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateRMAT(Balanced(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func samePaths(a, b [][]VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestChaosMatrix arms every injection point against every CPU-family
// backend in both modes and asserts the containment contract: the
// service never crashes, failed requests carry the typed engine fault,
// retried and surviving requests are byte-identical to a fault-free
// run, and no admission slot leaks.
func TestChaosMatrix(t *testing.T) {
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 16
	cfg.Seed = 3
	qs, err := RandomQueries(g, cfg, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 4
	chunk := len(qs) / reqs
	golden := make([]*Result, reqs)
	for r := range golden {
		res, err := Walk(g, qs[r*chunk:(r+1)*chunk], cfg)
		if err != nil {
			t.Fatal(err)
		}
		golden[r] = res
	}
	backends := []string{"cpu", "cpu-pipelined", "cpu-sharded"}
	modes := []fault.Mode{fault.ModeError, fault.ModePanic}
	for _, backend := range backends {
		for _, point := range fault.Points() {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%s/%s", backend, point, mode)
				t.Run(name, func(t *testing.T) {
					defer fault.Reset()
					fault.Enable(point, fault.Spec{Mode: mode, Every: 1, Limit: 2})
					svc, err := NewService(g, ServiceConfig{
						Backend: backend,
						Workers: 2,
						// All-cold tiered stores put ColdDecode on the hot path.
						MemoryBudgetBytes:   -1,
						Linger:              100 * time.Microsecond,
						QuarantineThreshold: -1, // retries must pass the front door
						WatchdogInterval:    -1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					results := make([]*Result, reqs)
					errs := make([]error, reqs)
					var wg sync.WaitGroup
					for r := 0; r < reqs; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							results[r], errs[r] = svc.Submit(context.Background(), cfg, qs[r*chunk:(r+1)*chunk])
						}(r)
					}
					wg.Wait()
					// Disarm, then retry every faulted request: recovery must be
					// byte-identical, proving the fault corrupted nothing shared.
					fault.Reset()
					for r := range errs {
						if errs[r] == nil {
							continue
						}
						if !errors.Is(errs[r], ErrEngineFault) {
							t.Fatalf("request %d: error %v, want ErrEngineFault", r, errs[r])
						}
						results[r], errs[r] = svc.Submit(context.Background(), cfg, qs[r*chunk:(r+1)*chunk])
						if errs[r] != nil {
							t.Fatalf("retry %d after fault: %v", r, errs[r])
						}
					}
					for r := range results {
						if !samePaths(results[r].Paths, golden[r].Paths) {
							t.Fatalf("request %d: paths differ from fault-free run", r)
						}
					}
					if got := svc.AdmissionStatus().InFlight; got != 0 {
						t.Fatalf("leaked admission slots: inflight=%d, want 0", got)
					}
				})
			}
		}
	}
}

// TestServiceBreakerDemoteRestore pins the breaker lifecycle end to end
// under the "auto" backend: consecutive engine faults demote the class
// to the cpu engine, the demoted plan serves cleanly (byte-identical),
// a half-open health check that faults keeps the class demoted for
// another cooldown, and a clean one restores the original plan.
func TestServiceBreakerDemoteRestore(t *testing.T) {
	defer fault.Reset()
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 8
	cfg.Seed = 5
	qs, err := RandomQueries(g, cfg, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Walk(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:             "auto",
		Workers:             2,
		BreakerThreshold:    2,
		BreakerCooldown:     50 * time.Millisecond,
		QuarantineThreshold: -1,
		WatchdogInterval:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	classStatus := func() PlanClassStatus {
		for _, st := range svc.PlanStatus() {
			if st.Class.Algorithm == cfg.Algorithm {
				return st
			}
		}
		t.Fatal("class not planned")
		return PlanClassStatus{}
	}
	// Healthy baseline resolves the original plan.
	res, err := svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !samePaths(res.Paths, golden.Paths) {
		t.Fatal("healthy run differs from Walk")
	}
	orig := classStatus().Plan
	// Two faulted dispatches (Limit 1 per arm keeps exactly one fire per
	// submission regardless of worker count) trip the threshold-2 breaker.
	for i := 0; i < 2; i++ {
		fault.Enable(fault.BatchExec, fault.Spec{Mode: fault.ModePanic, Limit: 1})
		if _, err := svc.Submit(ctx, cfg, qs); !errors.Is(err, ErrEngineFault) {
			t.Fatalf("fault %d: error %v, want ErrEngineFault", i, err)
		}
	}
	fault.Reset()
	st := classStatus()
	if !st.Demoted {
		t.Fatal("class not demoted after breaker tripped")
	}
	if st.Plan.Backend != "cpu" || st.Plan.Source != "demoted" {
		t.Fatalf("demoted plan %s (source %s), want cpu/demoted", st.Plan.Backend, st.Plan.Source)
	}
	if got := svc.FaultStatus().BreakerOpens; got != 1 {
		t.Fatalf("breaker opens %d, want 1", got)
	}
	// The demoted plan serves — and serves byte-identically.
	res, err = svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatalf("demoted serving: %v", err)
	}
	if !samePaths(res.Paths, golden.Paths) {
		t.Fatal("demoted run differs from Walk")
	}
	if classStatus().Plan.Source != "demoted" {
		t.Fatal("breaker half-opened before its cooldown")
	}
	// Past the cooldown the next submission runs the health check. With
	// the engine still faulting the check fails: the class stays demoted
	// and the submission itself is served by the cpu fallback.
	time.Sleep(70 * time.Millisecond)
	fault.Enable(fault.BatchExec, fault.Spec{Mode: fault.ModePanic, Limit: 1})
	res, err = svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatalf("serving past a failed health check: %v", err)
	}
	if got := fault.Fired(fault.BatchExec); got != 1 {
		t.Fatalf("batch-exec fired %d times, want once (in the health check)", got)
	}
	fault.Reset()
	if !samePaths(res.Paths, golden.Paths) {
		t.Fatal("run after a failed health check differs from Walk")
	}
	if st := classStatus(); !st.Demoted || st.Plan.Source != "demoted" {
		t.Fatalf("plan source %s (demoted=%v) after a failed health check, want demoted", st.Plan.Source, st.Demoted)
	}
	// The failed check re-armed the cooldown; past it a clean check
	// restores.
	time.Sleep(70 * time.Millisecond)
	res, err = svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatalf("restored serving: %v", err)
	}
	if !samePaths(res.Paths, golden.Paths) {
		t.Fatal("restored run differs from Walk")
	}
	st = classStatus()
	if st.Demoted || st.Plan.Source != "restored" {
		t.Fatalf("plan source %s (demoted=%v), want restored", st.Plan.Source, st.Demoted)
	}
	if st.Plan.Backend != orig.Backend {
		t.Fatalf("restored backend %s, want original %s", st.Plan.Backend, orig.Backend)
	}
	if got := svc.AdmissionStatus().InFlight; got != 0 {
		t.Fatalf("leaked admission slots: inflight=%d", got)
	}
}

// TestNewServiceRunsNoEngine: an auto service starts without running
// any engine — no start-up plan warm-up, no probe — so an armed
// batch-exec fault cannot fire before the first request, and no class
// has a plan yet.
func TestNewServiceRunsNoEngine(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fault.BatchExec, fault.Spec{Mode: fault.ModeError})
	svc, err := NewService(faultTestGraph(t), ServiceConfig{Backend: "auto", WatchdogInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := fault.Fired(fault.BatchExec); got != 0 {
		t.Fatalf("batch-exec fired %d times before the first Submit, want 0", got)
	}
	if st := svc.PlanStatus(); len(st) != 0 {
		t.Fatalf("plan status before the first Submit: %+v, want empty", st)
	}
}

// wedgeBackend is a heartbeat-capable test engine that never makes
// progress: Run parks on the batch context until the watchdog cancels
// it.
type wedgeBackend struct{}

func (wedgeBackend) Name() string        { return "test-wedge" }
func (wedgeBackend) Description() string { return "test backend that wedges until canceled" }
func (wedgeBackend) Open(g *graph.CSR, cfg exec.Config) (exec.Session, error) {
	return wedgeSession{}, nil
}
func (wedgeBackend) MergesBatches() bool { return true }
func (wedgeBackend) Heartbeats() bool    { return true }

type wedgeSession struct{}

func (wedgeSession) Run(ctx context.Context, b exec.Batch) (*exec.BatchResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (wedgeSession) Stream(ctx context.Context, b exec.Batch, fn func(exec.WalkOutput) error) error {
	<-ctx.Done()
	return ctx.Err()
}

func (wedgeSession) Close() error { return nil }

// recorderBackend records the order in which groups reach the engine
// (keyed by walk seed), for the EDF ordering test.
type recorderBackend struct{}

var (
	recordMu sync.Mutex
	recorded []uint64
)

func (recorderBackend) Name() string        { return "test-recorder" }
func (recorderBackend) Description() string { return "test backend that records dispatch order" }
func (recorderBackend) Open(g *graph.CSR, cfg exec.Config) (exec.Session, error) {
	return recorderSession{seed: cfg.Walk.Seed}, nil
}
func (recorderBackend) MergesBatches() bool { return true }

type recorderSession struct{ seed uint64 }

func (s recorderSession) Run(ctx context.Context, b exec.Batch) (*exec.BatchResult, error) {
	recordMu.Lock()
	recorded = append(recorded, s.seed)
	recordMu.Unlock()
	paths := make([][]graph.VertexID, len(b.Queries))
	for i, q := range b.Queries {
		paths[i] = []graph.VertexID{q.Start}
	}
	return &exec.BatchResult{Paths: paths}, nil
}

func (s recorderSession) Stream(ctx context.Context, b exec.Batch, fn func(exec.WalkOutput) error) error {
	return errors.New("test-recorder: no stream")
}

func (recorderSession) Close() error { return nil }

func init() {
	exec.Register(wedgeBackend{})
	exec.Register(recorderBackend{})
}

// TestWatchdogKillsStalledGroup pins the watchdog path: a group on a
// heartbeat-capable engine that makes no progress is canceled after two
// scans, its submitter gets ErrEngineStalled, the shed queries are
// accounted as watchdog kills, and a diagnostic snapshot is recorded.
func TestWatchdogKillsStalledGroup(t *testing.T) {
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 8
	cfg.Seed = 9
	qs, err := RandomQueries(g, cfg, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:          "test-wedge",
		Workers:          1,
		WatchdogInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, err = svc.Submit(context.Background(), cfg, qs)
	if !errors.Is(err, ErrEngineStalled) {
		t.Fatalf("error %v, want ErrEngineStalled", err)
	}
	ast := svc.AdmissionStatus()
	if got := ast.PerLane["interactive"].WatchdogKilled; got != int64(len(qs)) {
		t.Fatalf("watchdog-killed %d, want %d", got, len(qs))
	}
	if got := ast.InFlight; got != 0 {
		t.Fatalf("leaked admission slots: inflight=%d", got)
	}
	fr := svc.FaultStatus()
	if len(fr.Watchdog) != 1 {
		t.Fatalf("watchdog events %d, want 1", len(fr.Watchdog))
	}
	ev := fr.Watchdog[0]
	if ev.Backend != "test-wedge" || ev.Lane != "interactive" || ev.Queries != len(qs) {
		t.Fatalf("watchdog event %+v", ev)
	}
}

// TestQuarantineAfterRepeatedFaults pins the poison-query path: a query
// that faults the engine QuarantineThreshold times is rejected with
// ErrQuarantined — even after the fault clears — while other queries
// keep serving.
func TestQuarantineAfterRepeatedFaults(t *testing.T) {
	defer fault.Reset()
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 8
	cfg.Seed = 21
	qs, err := RandomQueries(g, cfg, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:             "cpu",
		Workers:             1,
		QuarantineThreshold: 2,
		WatchdogInterval:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	poison := qs[:1]
	fault.Enable(fault.BatchExec, fault.Spec{Mode: fault.ModeError, Tag: "cpu"})
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(ctx, cfg, poison); !errors.Is(err, ErrEngineFault) {
			t.Fatalf("fault %d: error %v, want ErrEngineFault", i, err)
		}
	}
	if _, err := svc.Submit(ctx, cfg, poison); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("error %v, want ErrQuarantined", err)
	}
	fault.Reset()
	// The fault is gone: other queries serve, the poison stays out.
	if _, err := svc.Submit(ctx, cfg, qs[1:2]); err != nil {
		t.Fatalf("healthy query after quarantine: %v", err)
	}
	if _, err := svc.Submit(ctx, cfg, poison); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("error %v, want ErrQuarantined to persist", err)
	}
	ast := svc.AdmissionStatus()
	lane := ast.PerLane["interactive"]
	if lane.Faulted != 2 || lane.Quarantined != 2 {
		t.Fatalf("lane counters faulted=%d quarantined=%d, want 2/2", lane.Faulted, lane.Quarantined)
	}
	if got := svc.FaultStatus().QuarantinedQueries; got != 1 {
		t.Fatalf("quarantined queries %d, want 1", got)
	}
	if got := ast.InFlight; got != 0 {
		t.Fatalf("leaked admission slots: inflight=%d", got)
	}
}

// TestEDFFlushHeapOrder pins the lane-local dispatch order pure-unit:
// deadlined groups before deadline-free ones, earliest deadline first,
// FIFO among equals.
func TestEDFFlushHeapOrder(t *testing.T) {
	base := time.Unix(1000, 0)
	var h flushHeap
	push := func(key string, seq int64, dl time.Duration) {
		j := flushJob{key: key, seq: seq}
		if dl != 0 {
			j.deadline, j.hasDL = base.Add(dl), true
		}
		heap.Push(&h, j)
	}
	push("a", 1, 0)
	push("b", 2, 2*time.Second)
	push("c", 3, time.Second)
	push("d", 4, 0)
	push("e", 5, time.Second)
	want := []string{"c", "e", "b", "a", "d"}
	for i, w := range want {
		got := heap.Pop(&h).(flushJob).key
		if got != w {
			t.Fatalf("pop %d: %s, want %s", i, got, w)
		}
	}
}

// TestEDFDispatchOrder pins EDF ordering through the real flush path:
// with the dispatcher paused, three groups with (none, late, early)
// deadlines queue up; on resume a single worker must run them
// earliest-deadline-first with the deadline-free group last.
func TestEDFDispatchOrder(t *testing.T) {
	g := faultTestGraph(t)
	base := DefaultWalkConfig(URW)
	base.WalkLength = 4
	qs, err := RandomQueries(g, base, 2, 29)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:          "test-recorder",
		Workers:          1,
		Linger:           time.Millisecond,
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	recordMu.Lock()
	recorded = nil
	recordMu.Unlock()
	svc.pauseFlush()
	var wg sync.WaitGroup
	submit := func(seed uint64, deadline time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Seed = seed // distinct seed → distinct group
			ctx := context.Background()
			if deadline != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, deadline)
				defer cancel()
			}
			if _, err := svc.Submit(ctx, cfg, qs); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}()
	}
	submit(101, 0)              // no deadline: must run last
	submit(102, 20*time.Second) // late deadline
	submit(103, 10*time.Second) // early deadline: must run first
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		svc.flushMu.Lock()
		n := len(svc.flushQs[0])
		svc.flushMu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("groups queued: %d, want 3", n)
		}
		time.Sleep(time.Millisecond)
	}
	svc.resumeFlush()
	wg.Wait()
	recordMu.Lock()
	got := append([]uint64(nil), recorded...)
	recordMu.Unlock()
	want := []uint64{103, 102, 101}
	if len(got) != len(want) {
		t.Fatalf("dispatches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestStreamChunkLeases pins admission-aware streaming: a long Stream
// holds in-flight slots only for the chunk being walked (≤ MaxBatch),
// not the whole request, releases everything at the end, and stays
// byte-identical to the unchunked engine.
func TestStreamChunkLeases(t *testing.T) {
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 8
	cfg.Seed = 31
	qs, err := RandomQueries(g, cfg, 16, 37)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Walk(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:          "cpu",
		Workers:          1,
		MaxBatch:         4,
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	maxInFlight := 0
	paths := make([][]VertexID, len(qs))
	err = svc.Stream(context.Background(), cfg, qs, func(w WalkOutput) error {
		if n := svc.AdmissionStatus().InFlight; n > maxInFlight {
			maxInFlight = n
		}
		paths[w.Query] = append([]VertexID(nil), w.Path...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight == 0 || maxInFlight > 4 {
		t.Fatalf("in-flight during stream %d, want 1..4 (chunk lease)", maxInFlight)
	}
	if got := svc.AdmissionStatus().InFlight; got != 0 {
		t.Fatalf("leaked admission slots: inflight=%d", got)
	}
	if !samePaths(paths, golden.Paths) {
		t.Fatal("chunked stream differs from Walk")
	}
}

// TestCompactGraphResetsAdmitEWMA pins the budget handoff: compaction
// replaces the base graph, so the admission controller's observed
// service rate (and the breaker table) restart from zero.
func TestCompactGraphResetsAdmitEWMA(t *testing.T) {
	g := faultTestGraph(t)
	cfg := DefaultWalkConfig(URW)
	cfg.WalkLength = 8
	cfg.Seed = 41
	qs, err := RandomQueries(g, cfg, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(g, ServiceConfig{
		Backend:          "cpu",
		Workers:          1,
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
		t.Fatal(err)
	}
	if rate := svc.AdmissionStatus().ServiceRate; rate == 0 {
		t.Fatal("no observed service rate before compaction")
	}
	svc.CompactGraph()
	if rate := svc.AdmissionStatus().ServiceRate; rate != 0 {
		t.Fatalf("service rate %.1f after compaction, want 0 (re-seed)", rate)
	}
	if n := len(svc.FaultStatus().Breakers); n != 0 {
		t.Fatalf("breaker table %d entries after compaction, want 0", n)
	}
	// And the service keeps serving on the compacted base.
	if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
		t.Fatalf("post-compaction serving: %v", err)
	}
}
