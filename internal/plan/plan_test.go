package plan

import (
	"errors"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// TestDecidePicksFastestAndIsPure: the plan the planner picks is the
// cohort pipeline, the engine never slower than the flat one, and Decide
// returns the same plan for the same constraints every time.
func TestDecidePicksFastestAndIsPure(t *testing.T) {
	for _, cons := range []Constraints{{}, {Cohort: 32}, {Cohort: 64, MemoryBudgetBytes: 1 << 20}} {
		p1, p2 := Decide(cons), Decide(cons)
		if p1 != p2 {
			t.Fatalf("Decide(%+v) is not deterministic: %+v vs %+v", cons, p1, p2)
		}
		if p1.Backend != "cpu-pipelined" {
			t.Fatalf("Decide(%+v) chose %v, want cpu-pipelined", cons, p1.Candidate)
		}
	}
}

func TestDecideMemoryKnobs(t *testing.T) {
	// A stated budget passes through verbatim, pinned cohort or not.
	for _, cons := range []Constraints{
		{MemoryBudgetBytes: 1 << 20},
		{Cohort: 32, MemoryBudgetBytes: -1},
		{},
	} {
		if p := Decide(cons); p.MemoryBudgetBytes != cons.MemoryBudgetBytes {
			t.Fatalf("Decide(%+v) budget = %d, want %d", cons, p.MemoryBudgetBytes, cons.MemoryBudgetBytes)
		}
	}
}

func TestDecideStatsFallback(t *testing.T) {
	// With nothing pinned, the cohort pipeline at DefaultCohort; a pinned
	// cohort is the width the plan runs at.
	p := Decide(Constraints{})
	if want := (Candidate{Backend: "cpu-pipelined", Cohort: DefaultCohort}); p.Candidate != want {
		t.Fatalf("default = %v, want %v", p.Candidate, want)
	}
	if p.Source != "default" {
		t.Fatalf("source = %q, want default", p.Source)
	}
	p = Decide(Constraints{Cohort: 32})
	if want := (Candidate{Backend: "cpu-pipelined", Cohort: 32}); p.Candidate != want {
		t.Fatalf("cohort pinned: plan = %v, want %v", p.Candidate, want)
	}
	if p.Source != "pinned" {
		t.Fatalf("cohort pinned: source = %q, want pinned", p.Source)
	}
}

// TestPlannerDemoteRestore: a demotion moves the class to cpu at a new
// revision; a failing health check keeps it there, and a passing one
// reinstates the stashed plan at the next revision.
func TestPlannerDemoteRestore(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := walk.DefaultConfig(walk.URW)
	healthErr := errors.New("still faulting")
	var checked []Candidate
	p := New(g, Constraints{Cohort: 64}, func(c Candidate, _ walk.Config) error {
		checked = append(checked, c)
		return healthErr
	})
	orig, err := p.PlanFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Restore(cfg); ok {
		t.Fatal("restored a class that was never demoted")
	}
	dem, ok := p.Demote(cfg, "test")
	if !ok || dem.Backend != "cpu" || dem.Source != "demoted" || dem.Revision != orig.Revision+1 {
		t.Fatalf("demoted plan %+v (ok=%v)", dem, ok)
	}
	if _, ok := p.Restore(cfg); ok {
		t.Fatal("restored past a failing health check")
	}
	if st := p.Status(); len(st) != 1 || !st[0].Demoted || st[0].Plan != dem {
		t.Fatalf("status after failed restore %+v", st)
	}
	healthErr = nil
	res, ok := p.Restore(cfg)
	if !ok || res.Candidate != orig.Candidate || res.Source != "restored" || res.Revision != dem.Revision+1 {
		t.Fatalf("restored plan %+v (ok=%v), want %v at revision %d", res, ok, orig.Candidate, dem.Revision+1)
	}
	if len(checked) != 2 || checked[0] != orig.Candidate || checked[1] != orig.Candidate {
		t.Fatalf("health checks ran on %v, want the stashed %v twice", checked, orig.Candidate)
	}
}
