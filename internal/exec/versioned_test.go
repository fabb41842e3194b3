package exec

import (
	"context"
	"strings"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// mutationFixture applies one named mutation scenario to a fresh wrapper
// over g and returns the pinned snapshot plus the compacted final graph
// (the cold-build golden). The snapshot outlives the compaction, so
// sessions serve (base g + overlay) while the golden runs on the folded
// CSR — byte-identity between the two is the tentpole's contract.
func mutationFixture(t *testing.T, g *graph.CSR, scenario string) (*graph.Snapshot, *graph.CSR) {
	t.Helper()
	vg := graph.NewVersioned(g)
	n := graph.VertexID(g.NumVertices)
	var inserts []graph.Edge
	for i := 0; i < 48; i++ {
		inserts = append(inserts, graph.Edge{
			Src: graph.VertexID(i*37) % n,
			Dst: graph.VertexID(i*91+13) % n,
		})
	}
	// Deletes target existing base edges, deduped by unordered pair so an
	// undirected mirror is never deleted twice.
	var deletes []graph.Edge
	seen := map[[2]graph.VertexID]bool{}
	for v := graph.VertexID(0); v < n && len(deletes) < 32; v += 3 {
		ns := g.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		d := ns[len(ns)/2]
		key := [2]graph.VertexID{min(v, d), max(v, d)}
		if seen[key] {
			continue
		}
		seen[key] = true
		deletes = append(deletes, graph.Edge{Src: v, Dst: d})
	}
	switch scenario {
	case "insert":
		if err := vg.InsertEdges(inserts); err != nil {
			t.Fatal(err)
		}
	case "delete":
		if err := vg.DeleteEdges(deletes); err != nil {
			t.Fatal(err)
		}
	case "mixed":
		if err := vg.InsertEdges(inserts); err != nil {
			t.Fatal(err)
		}
		if err := vg.DeleteEdges(deletes); err != nil {
			t.Fatal(err)
		}
		// Also delete a few just-inserted edges so overlay-only rows see
		// both directions of churn.
		if err := vg.DeleteEdges(inserts[:8]); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	snap := vg.ServingSnapshot()
	if snap == nil {
		t.Fatal("scenario produced an empty overlay")
	}
	return snap, vg.Compact()
}

// TestMutationEquivalenceMatrix is the dynamic-graph acceptance contract:
// for every algorithm × CPU backend × store (flat, tiered) × mutation
// scenario, walks served over (base + overlay snapshot) are
// byte-identical to walks over a cold build of the final graph.
func TestMutationEquivalenceMatrix(t *testing.T) {
	g := testGraph(t)
	scenarios := []string{"insert", "delete", "mixed"}
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 120)
			for _, scenario := range scenarios {
				snap, final := mutationFixture(t, g, scenario)
				want, err := walk.Run(final, qs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, sh := range cpuShapes() {
					for _, budget := range []int64{0, 1 << 16} {
						ses, err := sh.open(g, Config{
							Walk: cfg, Workers: 2, MemoryBudgetBytes: budget, Snapshot: snap,
						})
						if err != nil {
							t.Fatalf("%s/%s budget=%d: %v", scenario, sh, budget, err)
						}
						got, err := ses.Run(context.Background(), Batch{Queries: qs})
						if err != nil {
							ses.Close()
							t.Fatalf("%s/%s budget=%d: %v", scenario, sh, budget, err)
						}
						for i := range want.Paths {
							if !equalPath(got.Paths[i], want.Paths[i]) {
								ses.Close()
								t.Fatalf("%s/%s budget=%d query %d: overlay path %v, cold build %v",
									scenario, sh, budget, i, got.Paths[i], want.Paths[i])
							}
						}
						ses.Close()
					}
				}
			}
		})
	}
}

// TestVersionedGraphCapability pins which backends serve snapshots: the
// CPU family does (the matrices above), the FPGA models and related-work
// analytics do not, and must reject a snapshot config loudly, not
// silently walk the stale base.
func TestVersionedGraphCapability(t *testing.T) {
	g := testGraph(t)
	cfg, _ := testWorkload(t, g, walk.URW, 1)
	snap, _ := mutationFixture(t, g, "insert")
	for _, name := range []string{"ridgewalker", "fastrw"} {
		_, err := Open(name, g, Config{Walk: cfg, Snapshot: snap})
		if err == nil || !strings.Contains(err.Error(), "versioned-graph") {
			t.Fatalf("%s: want versioned-graph rejection, got %v", name, err)
		}
	}

	// A snapshot over a different graph is a config error on any backend.
	other := testGraph(t)
	for _, name := range []string{"cpu", "cpu-pipelined", "cpu-sharded"} {
		_, err := Open(name, other, Config{Walk: cfg, Snapshot: snap})
		if err == nil || !strings.Contains(err.Error(), "different graph") {
			t.Fatalf("%s: want different-graph rejection, got %v", name, err)
		}
	}
}

// TestMutationRunStats checks the per-epoch accounting surfaces: a
// sharded run over a snapshot reports the pinned epoch and overlay size.
func TestMutationRunStats(t *testing.T) {
	g := testGraph(t)
	cfg, qs := testWorkload(t, g, walk.DeepWalk, 60)
	snap, final := mutationFixture(t, g, "mixed")
	want, err := walk.Run(final, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Workers: 2, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	got, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Paths {
		if !equalPath(got.Paths[i], want.Paths[i]) {
			t.Fatalf("query %d diverged", i)
		}
	}
}
