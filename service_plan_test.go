package ridgewalker_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ridgewalker"
)

// TestServiceAutoBackendMatchesGolden: the default backend is the
// planner ("auto"); served results stay byte-identical to the golden
// engine, every class runs the default plan, and metrics record the
// resolved engine — never the literal "auto".
func TestServiceAutoBackendMatchesGolden(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{})
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
			if !reflect.DeepEqual(got.Paths, want.Paths) {
				t.Fatal("auto-planned Submit differs from the golden engine")
			}
		})
	}
	st := svc.PlanStatus()
	if len(st) != 5 {
		t.Fatalf("plan status covers %d classes, want 5", len(st))
	}
	for _, ps := range st {
		if ps.Plan.Backend != "cpu-pipelined" || ps.Plan.Cohort != 256 || ps.Plan.Source != "default" {
			t.Fatalf("class %s planned %s (%s), want cpu-pipelined c256 (default)", ps.Class, ps.Plan.Candidate, ps.Plan.Source)
		}
	}
	m := svc.Metrics()
	if _, ok := m.PerBackend["auto"]; ok {
		t.Fatal(`metrics recorded the literal "auto" instead of the resolved engine`)
	}
	var steps int64
	for _, c := range m.PerBackend {
		steps += c.Steps
	}
	if steps == 0 {
		t.Fatal("no steps recorded under any resolved backend")
	}
}

// TestServiceExplainPlan: the explain surface renders the decision
// record for auto services and refuses manually pinned backends.
func TestServiceExplainPlan(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	out, err := svc.ExplainPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"class URW", "plan: cpu-pipelined c256 (default)", "reason:"} {
		if !strings.Contains(out, part) {
			t.Fatalf("explain output missing %q:\n%s", part, out)
		}
	}
	pinned, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if _, err := pinned.ExplainPlan(cfg); err == nil {
		t.Fatal("ExplainPlan on a pinned backend should error")
	}
}
