package exec

import (
	"context"
	"reflect"
	"testing"

	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// TestAutoEquivalenceMatrix pins the auto backend's core contract:
// whatever engine and shape the planner resolves to, the trajectories
// are byte-identical to opening that backend by hand with the same
// knobs — across all five algorithms, on the static graph and under a
// mutated-snapshot serving view.
func TestAutoEquivalenceMatrix(t *testing.T) {
	g := testGraph(t)
	snap, _ := mutationFixture(t, g, "mixed")
	for _, alg := range walk.Algorithms {
		for _, view := range []string{"static", "mutated-snapshot"} {
			t.Run(alg.String()+"/"+view, func(t *testing.T) {
				cfg, qs := testWorkload(t, g, alg, 200)
				acfg := Config{Walk: cfg}
				if view == "mutated-snapshot" {
					acfg.Snapshot = snap
				}
				auto, err := Open("auto", g, acfg)
				if err != nil {
					t.Fatal(err)
				}
				defer auto.Close()
				got, err := auto.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				pr := got.Plan
				if pr == nil {
					t.Fatal("auto session attached no plan report")
				}
				if pr.Backend == "" || pr.Backend == "auto" {
					t.Fatalf("plan resolved to %q", pr.Backend)
				}
				// Re-run the resolved plan by hand.
				mcfg := Config{
					Walk:              cfg,
					Cohort:            pr.Cohort,
					MemoryBudgetBytes: pr.MemoryBudgetBytes,
					Snapshot:          acfg.Snapshot,
				}
				manual, err := Open(pr.Backend, g, mcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer manual.Close()
				want, err := manual.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("auto (%s) diverged from manually opened %s", pr.Backend, pr.Backend)
				}
			})
		}
	}
}

// TestAutoRespectsMemoryBudget pins the planner's memory contract: a
// stated budget reaches the chosen session verbatim.
func TestAutoRespectsMemoryBudget(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.DeepWalk, 120)
	const budget = 1 << 16
	ses, err := Open("auto", g, Config{
		Walk:              cfg,
		MemoryBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Plan
	if pr == nil {
		t.Fatal("no plan report")
	}
	if pr.MemoryBudgetBytes != budget {
		t.Fatalf("plan budget %d, want the stated %d", pr.MemoryBudgetBytes, budget)
	}
	if res.Memory == nil {
		t.Fatal("budgeted auto session attached no memory report")
	}
	if got := res.Memory.GraphBudget + res.Memory.SamplerBudget; got > budget {
		t.Fatalf("session tier budgets %d exceed the stated budget %d", got, budget)
	}
}

// TestAutoSessionCapabilities: the wrapper must pass the chosen
// session's capabilities through — sampler sizing and the plan report —
// and the backend itself must declare the cpu-family capabilities its
// delegates hold.
func TestAutoSessionCapabilities(t *testing.T) {
	if !MergesBatches("auto") || !SupportsMemoryTiering("auto") || !SupportsVersionedGraphs("auto") {
		t.Fatal("auto must declare the cpu-family capabilities")
	}
	g := testGraph(t)
	cfg, _ := testWorkload(t, g, walk.DeepWalk, 10)
	ses, err := Open("auto", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	rep, ok := ses.(PlanReporter)
	if !ok {
		t.Fatal("auto session does not implement PlanReporter")
	}
	pr := rep.PlanReport()
	if pr.Source != "default" || pr.Backend != "cpu-pipelined" || pr.Cohort != plan.DefaultCohort {
		t.Fatalf("zero-config auto open planned %s c%d (%s), want cpu-pipelined c%d (default)",
			pr.Backend, pr.Cohort, pr.Source, plan.DefaultCohort)
	}
	sizer, ok := ses.(SamplerSizer)
	if !ok {
		t.Fatal("auto session does not implement SamplerSizer")
	}
	if sizer.SamplerBytes() == 0 {
		t.Fatal("DeepWalk alias store size not delegated")
	}
}
