package bench

import (
	"strings"
	"testing"
)

// perfFixture builds a report with a cpu baseline, one pipelined and one
// four-shard configuration per algorithm at two GOMAXPROCS levels. scale
// multiplies every throughput (simulating a faster/slower machine);
// pipelinedFactor sets the cohort backends' speed relative to cpu.
func perfFixture(scale, pipelinedFactor float64) *PerfReport {
	rep := &PerfReport{
		Schema: 2, Graph: "rmat-15-graph500", Queries: 2000, WalkLength: 80,
		Procs: []int{1, 2}, Ratios: map[string]float64{},
	}
	for _, alg := range []string{"URW", "DeepWalk"} {
		for _, p := range []int{1, 2} {
			cpu := 1e6 * scale * float64(p)
			rep.Records = append(rep.Records,
				PerfRecord{Backend: "cpu", Algorithm: alg, Graph: rep.Graph,
					GoMaxProcs: p, StepsPerSec: cpu},
				PerfRecord{Backend: "cpu-pipelined", Algorithm: alg, Graph: rep.Graph,
					Cohort: 64, GoMaxProcs: p, StepsPerSec: cpu * pipelinedFactor},
				PerfRecord{Backend: "cpu-sharded", Algorithm: alg, Graph: rep.Graph,
					Cohort: 256, Shards: 4, GoMaxProcs: p, StepsPerSec: cpu * pipelinedFactor * 1.1},
			)
		}
	}
	return rep
}

// TestComparePerfNormalizedIgnoresMachineSpeed: a uniformly 2× slower
// machine must not trip the normalized gate.
func TestComparePerfNormalizedIgnoresMachineSpeed(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(0.5, 2.0) // everything half as fast, same shape
	regs, compared := ComparePerf(baseline, fresh, 0.15, false)
	if compared == 0 {
		t.Fatal("no records compared")
	}
	if len(regs) != 0 {
		t.Fatalf("uniform slowdown flagged as regression: %v", regs)
	}
}

// TestComparePerfCatchesRelativeRegression: the pipelined backend losing
// a third of its edge over cpu must be flagged, machine speed unchanged.
func TestComparePerfCatchesRelativeRegression(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(1.0, 1.3)
	regs, compared := ComparePerf(baseline, fresh, 0.15, false)
	if compared == 0 {
		t.Fatal("no records compared")
	}
	if len(regs) == 0 {
		t.Fatal("35% relative regression not flagged")
	}
	for _, r := range regs {
		if !strings.Contains(r, "cpu-pipelined") && !strings.Contains(r, "cpu-sharded") {
			t.Fatalf("unexpected regression line: %s", r)
		}
	}
}

// TestComparePerfAbsolute: absolute mode flags the uniform slowdown the
// normalized mode forgives, and the cpu baseline itself participates.
func TestComparePerfAbsolute(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(0.5, 2.0)
	regs, compared := ComparePerf(baseline, fresh, 0.15, true)
	if compared == 0 {
		t.Fatal("no records compared")
	}
	if len(regs) == 0 {
		t.Fatal("50% absolute slowdown not flagged in absolute mode")
	}
}

// TestComparePerfTolerance: drops inside the tolerance pass.
func TestComparePerfTolerance(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(1.0, 2.0*0.9) // 10% relative drop
	regs, _ := ComparePerf(baseline, fresh, 0.15, false)
	if len(regs) != 0 {
		t.Fatalf("10%% drop flagged at 15%% tolerance: %v", regs)
	}
}

// TestComparePerfMismatchedConfigs: disjoint configurations compare
// nothing and say so.
func TestComparePerfMismatchedConfigs(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(1.0, 2.0)
	for i := range fresh.Records {
		fresh.Records[i].Graph = "rmat-22-graph500" // different workload
	}
	regs, compared := ComparePerf(baseline, fresh, 0.15, false)
	if compared != 0 || len(regs) != 0 {
		t.Fatalf("mismatched workloads compared: %d pairs, %v", compared, regs)
	}
}

// TestComparePerfFlagsDroppedConfiguration: a configuration present in
// the baseline but absent from the fresh report must fail the gate, not
// silently exit its coverage.
func TestComparePerfFlagsDroppedConfiguration(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(1.0, 2.0)
	kept := fresh.Records[:0]
	for _, r := range fresh.Records {
		if r.Shards != 4 {
			kept = append(kept, r)
		}
	}
	fresh.Records = kept
	regs, compared := ComparePerf(baseline, fresh, 0.15, false)
	if compared == 0 {
		t.Fatal("no records compared")
	}
	if len(regs) == 0 {
		t.Fatal("dropped cpu-sharded-s4 configuration not flagged")
	}
	for _, r := range regs {
		if !strings.Contains(r, "missing from the fresh report") {
			t.Fatalf("unexpected regression line: %s", r)
		}
	}
}

// plannerFixture attaches one planner cell per procs level to a report,
// each with the given regret against a pinned cpu-sharded best.
func plannerFixture(rep *PerfReport, regret float64) {
	for _, p := range []int{1, 2} {
		best := 2.2e6 * float64(p)
		rep.Planner = append(rep.Planner, PlannerRecord{
			Algorithm: "URW", Graph: rep.Graph, GoMaxProcs: p,
			Chosen: "cpu-pipelined c64", PlanSource: "default",
			AutoStepsPerSec:       best * (1 - regret),
			BestManual:            "cpu-sharded-s4",
			BestManualStepsPerSec: best,
			Regret:                regret,
		})
	}
}

// TestComparePlannerRegretGate: regret under the cap passes, over fails,
// and the gate needs no baseline planner cells to evaluate a fresh one.
func TestComparePlannerRegretGate(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	fresh := perfFixture(1.0, 2.0)
	plannerFixture(fresh, 0.05)
	regs, compared := ComparePerf(baseline, fresh, 0.15, false)
	if compared == 0 {
		t.Fatal("no records compared")
	}
	if len(regs) != 0 {
		t.Fatalf("5%% regret flagged at the 10%% cap: %v", regs)
	}
	over := perfFixture(1.0, 2.0)
	plannerFixture(over, 0.25)
	regs, _ = ComparePerf(baseline, over, 0.15, false)
	if len(regs) == 0 {
		t.Fatal("25% regret not flagged")
	}
	for _, r := range regs {
		if !strings.Contains(r, "regret") {
			t.Fatalf("unexpected regression line: %s", r)
		}
	}
}

// TestComparePlannerFlagsDroppedCells: baseline planner cells missing
// from the fresh report fail the gate.
func TestComparePlannerFlagsDroppedCells(t *testing.T) {
	baseline := perfFixture(1.0, 2.0)
	plannerFixture(baseline, 0.02)
	fresh := perfFixture(1.0, 2.0)
	regs, _ := ComparePerf(baseline, fresh, 0.15, false)
	found := false
	for _, r := range regs {
		if strings.Contains(r, "planner") && strings.Contains(r, "missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped planner cells not flagged: %v", regs)
	}
}
