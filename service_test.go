package ridgewalker_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ridgewalker"
)

func serviceTestGraph(t testing.TB) *ridgewalker.Graph {
	t.Helper()
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// TestServiceMatchesGoldenEngine asserts Service output — both Submit and
// Stream — is byte-identical to Walk (the golden engine) for the same seed
// across all five algorithms.
func TestServiceMatchesGoldenEngine(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for _, alg := range []ridgewalker.Algorithm{
		ridgewalker.URW, ridgewalker.PPR, ridgewalker.DeepWalk,
		ridgewalker.Node2Vec, ridgewalker.MetaPath,
	} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := ridgewalker.DefaultWalkConfig(alg)
			cfg.WalkLength = 20
			cfg.Seed = 11
			qs, err := ridgewalker.RandomQueries(g, cfg, 250, 17)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ridgewalker.Walk(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := svc.Submit(ctx, cfg, qs)
			if err != nil {
				t.Fatal(err)
			}
			if got.Steps != want.Steps || !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatal("Submit output differs from Walk")
			}
			streamed := make([][]ridgewalker.VertexID, len(qs))
			err = svc.Stream(ctx, cfg, qs, func(w ridgewalker.WalkOutput) error {
				cp := make([]ridgewalker.VertexID, len(w.Path))
				copy(cp, w.Path)
				streamed[w.Query] = cp
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, want.Paths) {
				t.Fatal("Stream output differs from Walk")
			}
		})
	}
}

// TestServiceSimulatorBackend serves requests off the cycle-level
// simulator backend.
func TestServiceSimulatorBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator runs are slow")
	}
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "ridgewalker"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 15
	qs, err := ridgewalker.RandomQueries(g, cfg, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Submit(context.Background(), cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != len(qs) || res.Steps == 0 {
		t.Fatalf("paths %d steps %d", len(res.Paths), res.Steps)
	}
}

func TestServiceRejectsBadInput(t *testing.T) {
	g := serviceTestGraph(t)
	if _, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "warp-drive"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	if _, err := svc.Submit(context.Background(), cfg, nil); err == nil {
		t.Fatal("empty request accepted")
	}
	cfg.WalkLength = 0
	qs := []ridgewalker.Query{{ID: 0, Start: 0}}
	if _, err := svc.Submit(context.Background(), cfg, qs); err == nil {
		t.Fatal("invalid walk config accepted")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	if _, err := svc.Submit(context.Background(), cfg, qs); err == nil {
		t.Fatal("submit after Close accepted")
	}
	if err := svc.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
}

// TestServiceSessionEviction drives more distinct walk configurations
// than the session cache holds: evicted sessions must be reopened
// transparently with identical results.
func TestServiceSessionEviction(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:     "cpu",
		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	qs := make([]ridgewalker.Query, 50)
	for i := range qs {
		qs[i] = ridgewalker.Query{ID: uint32(i), Start: 1}
	}
	check := func(seed uint64) {
		cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
		cfg.WalkLength = 10
		cfg.Seed = seed
		want, err := ridgewalker.Walk(g, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Submit(ctx, cfg, qs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatalf("seed %d: result differs after session churn", seed)
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		check(seed)
	}
	check(1) // evicted by now; must reopen with identical output
	if got := svc.Metrics().PerAlgorithm["URW"].Requests; got != 6 {
		t.Fatalf("requests = %d, want 6", got)
	}
}

// TestServiceShardedWideHost: a Service with Workers left unset sizes its
// dispatcher pool to GOMAXPROCS, but its cpu-sharded sessions take the
// engine's default worker budget, which stays within shard's 32-worker
// mesh bound, so a 64-proc host still serves. An explicit Workers that
// would build a larger mesh is still refused.
func TestServiceShardedWideHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	g := serviceTestGraph(t)
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 10
	qs, err := ridgewalker.RandomQueries(g, cfg, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ridgewalker.Walk(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 64} {
		svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
			Backend: "cpu-sharded",
			Workers: workers,
			Cohort:  16,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Submit(context.Background(), cfg, qs)
		svc.Close()
		switch {
		case workers == 0 && err != nil:
			t.Fatalf("Workers unset at GOMAXPROCS 64: %v", err)
		case workers == 0 && !reflect.DeepEqual(got.Paths, want.Paths):
			t.Fatal("Workers unset at GOMAXPROCS 64: paths differ from Walk")
		case workers != 0 && (err == nil || !strings.Contains(err.Error(), "MaxMeshWorkers")):
			t.Fatalf("Workers %d at GOMAXPROCS 64: error %v, want a MaxMeshWorkers refusal", workers, err)
		}
	}
}

func TestBackendsListAndOpen(t *testing.T) {
	names := ridgewalker.Backends()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 backends, got %v", names)
	}
	g := serviceTestGraph(t)
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 10
	qs, err := ridgewalker.RandomQueries(g, cfg, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "test-") {
			continue // fault-test fixtures registered by service_fault_test.go
		}
		if testing.Short() && name != "cpu" && name != "fastrw" && name != "gsampler" {
			continue
		}
		ses, err := ridgewalker.OpenBackend(name, g, ridgewalker.BackendConfig{Walk: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: qs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Steps == 0 {
			t.Fatalf("%s: no steps", name)
		}
		if err := ses.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ridgewalker.BackendByName("cpu"); err != nil {
		t.Fatal(err)
	}
}

// Example-style sanity check that the README quickstart compiles and runs.
func TestServiceQuickstartShape(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.PPR)
	cfg.WalkLength = 30
	qs, err := ridgewalker.RandomQueries(g, cfg, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var visits int64
	err = svc.Stream(context.Background(), cfg, qs, func(w ridgewalker.WalkOutput) error {
		visits += int64(len(w.Path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits == 0 {
		t.Fatal("no visits")
	}
	m := svc.Metrics()
	if m.PerAlgorithm["PPR"].Queries != 500 {
		t.Fatalf("metrics: %+v", m.PerAlgorithm)
	}
	_ = fmt.Sprintf("%+v", m)
}
