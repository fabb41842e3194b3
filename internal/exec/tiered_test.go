package exec

import (
	"context"
	"fmt"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// tieredBudgets are the hot-tier settings of the equivalence matrix:
// all-cold (every row through the compressed arena and decode scratch),
// ~10% of the flat row bytes (mixed hot/cold traffic), and unbounded
// (everything hot — the arena fast path end to end).
func tieredBudgets(g *graph.CSR) []int64 {
	flat := int64(len(g.Col)) * 4
	if g.Weighted() {
		flat *= 2
	}
	return []int64{-1, flat / 10, 1 << 40}
}

// TestTieredEquivalenceMatrix is the tentpole's correctness contract:
// for every algorithm × CPU backend × hot-tier budget, trajectories are
// byte-identical to the flat stores. Content identity of the tiered
// arenas plus unchanged RNG consumption make the tiers invisible to
// results — this pins it across the hot arena path, the cold decode
// path, the per-lane cohort scratch, and the sharded migration fabric.
func TestTieredEquivalenceMatrix(t *testing.T) {
	g := testGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 200)
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range cpuShapes() {
				for _, budget := range tieredBudgets(g) {
					ses, err := sh.open(g, Config{Walk: cfg, Workers: 2, MemoryBudgetBytes: budget})
					if err != nil {
						t.Fatalf("%s budget=%d: %v", sh, budget, err)
					}
					got, err := ses.Run(context.Background(), Batch{Queries: qs})
					if err != nil {
						ses.Close()
						t.Fatalf("%s budget=%d: %v", sh, budget, err)
					}
					if got.Memory == nil {
						ses.Close()
						t.Fatalf("%s budget=%d: no memory report", sh, budget)
					}
					for i := range want.Paths {
						if !equalPath(got.Paths[i], want.Paths[i]) {
							ses.Close()
							t.Fatalf("%s budget=%d query %d: tiered path %v, flat %v",
								sh, budget, i, got.Paths[i], want.Paths[i])
						}
					}
					ses.Close()
				}
			}
		})
	}
}

// engineShape is one pinned CPU-engine shape of an equivalence matrix.
type engineShape struct {
	backend        string
	shards, cohort int
}

// cpuShapes lists the shapes every equivalence matrix runs: the flat
// engine, the cohort pipeline, and the sharded engine at Shards {2, 4} ×
// Cohort {1, 64}. Each is pinned, so no cell takes its shape from the
// host's GOMAXPROCS.
func cpuShapes() []engineShape {
	shapes := []engineShape{{backend: "cpu"}, {backend: "cpu-pipelined", cohort: DefaultCohort}}
	for _, shards := range []int{2, 4} {
		for _, cohort := range []int{1, 64} {
			shapes = append(shapes, engineShape{"cpu-sharded", shards, cohort})
		}
	}
	return shapes
}

func (s engineShape) open(g *graph.CSR, cfg Config) (Session, error) {
	cfg.Shards, cfg.Cohort = s.shards, s.cohort
	return Open(s.backend, g, cfg)
}

func (s engineShape) String() string {
	return fmt.Sprintf("%s/s%d/c%d", s.backend, s.shards, s.cohort)
}

func equalPath(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTieredMemoryReport pins the report plumbing: budgets surface on
// BatchResult (a copy per run), the all-cold graph compresses ≥2x, and
// untiered sessions report nothing.
func TestTieredMemoryReport(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.DeepWalk, 50)
	ses, err := Open("cpu", g, Config{Walk: cfg, MemoryBudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memory
	if m == nil {
		t.Fatal("tiered session returned no memory report")
	}
	if m.Budget != -1 || m.GraphHotRows != 0 || m.SamplerHotRows != 0 {
		t.Fatalf("all-cold report off: %+v", m)
	}
	if m.GraphColdRatio < 2 {
		t.Fatalf("cold CSR compression %.2fx, want >= 2x", m.GraphColdRatio)
	}
	if m.SamplerBudget == 0 || m.SamplerColdRows == 0 {
		t.Fatalf("DeepWalk should tier the alias store: %+v", m)
	}
	if m.ScratchBoundPerWorker <= 0 {
		t.Fatalf("scratch bound %d, want > 0", m.ScratchBoundPerWorker)
	}
	// Every run carries its own copy of the report.
	m.GraphBytes = 0
	again, err := ses.Run(context.Background(), Batch{Queries: qs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if again.Memory == nil || again.Memory.GraphBytes == 0 || again.Memory == m {
		t.Fatalf("second run's report %+v shares or lost the first's", again.Memory)
	}

	flat, err := Open("cpu", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	fres, err := flat.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Memory != nil {
		t.Fatal("untiered session attached a memory report")
	}
}

// TestTieredEquivalenceRMAT18 repeats the trajectory-identity check at
// RMAT-18 (262k vertices, 4.2M edges, Graph500 parameters) — a graph
// whose degree distribution actually exercises the strided cold decode
// on deep rows, unlike the small matrix's. Skipped under -short;
// the acceptance sweep runs it on the full suite.
func TestTieredEquivalenceRMAT18(t *testing.T) {
	if testing.Short() {
		t.Skip("RMAT-18 equivalence matrix is not a -short test")
	}
	g, err := graph.GenerateRMAT(graph.Graph500(18, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	backends := []string{"cpu", "cpu-pipelined", "cpu-sharded"}
	for _, alg := range []walk.Algorithm{walk.URW, walk.DeepWalk, walk.Node2Vec} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 100)
			want, err := walk.Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range backends {
				for _, budget := range []int64{-1, graph.AutoMemoryBudget(g)} {
					ses, err := Open(backend, g, Config{Walk: cfg, Workers: 2, MemoryBudgetBytes: budget})
					if err != nil {
						t.Fatalf("%s budget=%d: %v", backend, budget, err)
					}
					got, err := ses.Run(context.Background(), Batch{Queries: qs})
					if err != nil {
						ses.Close()
						t.Fatalf("%s budget=%d: %v", backend, budget, err)
					}
					for i := range want.Paths {
						if !equalPath(got.Paths[i], want.Paths[i]) {
							ses.Close()
							t.Fatalf("%s budget=%d query %d: tiered path diverges from flat",
								backend, budget, i)
						}
					}
					ses.Close()
				}
			}
		})
	}
}

// TestTieredSessionSharing opens tiered sessions on two backends with
// the same budget and checks they share one tiered graph store through
// the acquire cache.
func TestTieredSessionSharing(t *testing.T) {
	g := testGraph(t)
	cfg, _ := testWorkload(t, g, walk.URW, 1)
	a, err := Open("cpu", g, Config{Walk: cfg, MemoryBudgetBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open("cpu-sharded", g, Config{Walk: cfg, MemoryBudgetBytes: 1 << 16})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	if n := graph.TieredRefs(g, 1<<16); n != 2 {
		t.Fatalf("tiered store refs %d, want 2", n)
	}
	a.Close()
	b.Close()
	if n := graph.TieredRefs(g, 1<<16); n != 0 {
		t.Fatalf("tiered store refs after close %d, want 0", n)
	}
}
