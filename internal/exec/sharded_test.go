package exec

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

// irregularTestGraph builds a directed graph with the pathologies the
// sharded engine must survive: zero-out-degree vertices (walks terminate
// mid-flight on arrival — paper Fig. 1b), self-loops (a "migration" to the
// same vertex must stay put), and skewed degrees. Weighted and labeled so
// every algorithm runs.
func irregularTestGraph(t testing.TB) *graph.CSR {
	t.Helper()
	const n = 600
	r := rng.New(99)
	var edges []graph.Edge
	for i := 0; i < 6*n; i++ {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(r.Intn(n))
		if src < 40 {
			continue // vertices [0,40) keep zero out-degree: sinks
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	for v := 50; v < n; v += 13 {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v)})
	}
	g, err := graph.Build(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.ZeroOutDegreeCount() < 40 {
		t.Fatalf("test graph lost its sinks: %d", g.ZeroOutDegreeCount())
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// TestShardedEquivalenceMatrix is the cross-backend equivalence matrix:
// every algorithm × shard counts {1,2,4,7} on a graph with sinks and
// self-loops must be byte-identical to the cpu backend (itself pinned to
// walk.Run by TestCPURunMatchesGoldenEngine).
func TestShardedEquivalenceMatrix(t *testing.T) {
	g := irregularTestGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 350)
			cpu, err := Open("cpu", g, Config{Walk: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer cpu.Close()
			want, err := cpu.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 7} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer ses.Close()
					got, err := ses.Run(context.Background(), Batch{Queries: qs})
					if err != nil {
						t.Fatal(err)
					}
					if got.Steps != want.Steps {
						t.Fatalf("steps %d, want %d", got.Steps, want.Steps)
					}
					if !reflect.DeepEqual(got.Paths, want.Paths) {
						t.Fatal("sharded paths differ from cpu backend")
					}
					// Session reuse: a second batch must be identical.
					again, err := ses.Run(context.Background(), Batch{Queries: qs})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again.Paths, want.Paths) {
						t.Fatal("second sharded batch differs")
					}
				})
			}
		})
	}
}

// TestShardedStreamMatchesRun pins the Stream entry point: streamed walks
// reassembled by query ID equal the Run result.
func TestShardedStreamMatchesRun(t *testing.T) {
	g := irregularTestGraph(t)
	for _, alg := range []walk.Algorithm{walk.URW, walk.Node2Vec} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 250)
			ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer ses.Close()
			want, err := ses.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			paths := make([][]graph.VertexID, len(qs))
			var steps int64
			err = ses.Stream(context.Background(), Batch{Queries: qs}, func(w WalkOutput) error {
				if paths[w.Query] != nil {
					return fmt.Errorf("query %d delivered twice", w.Query)
				}
				cp := make([]graph.VertexID, len(w.Path))
				copy(cp, w.Path)
				paths[w.Query] = cp
				steps += w.Steps
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if steps != want.Steps {
				t.Fatalf("streamed steps %d, want %d", steps, want.Steps)
			}
			if !reflect.DeepEqual(paths, want.Paths) {
				t.Fatal("streamed paths differ from Run")
			}
		})
	}
}

func TestShardedOpenValidation(t *testing.T) {
	g := irregularTestGraph(t)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 10
	if _, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: g.NumVertices + 1}); err == nil {
		t.Fatal("shards > vertices accepted")
	}
	// Closed sessions must refuse work.
	ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(context.Background(), Batch{Queries: []walk.Query{{ID: 0, Start: 100}}}); err == nil {
		t.Fatal("Run on closed session accepted")
	}
	// Backend parity: the empty graph opens everywhere else (Validate and
	// ReadBinary accept it), so cpu-sharded must open it too.
	empty, err := graph.Build(0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	ses, err = Open("cpu-sharded", empty, Config{Walk: cfg})
	if err != nil {
		t.Fatalf("empty graph rejected: %v", err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	// Tiny graphs must still open with the default shard count.
	tiny, err := graph.Build(2, []graph.Edge{{Src: 0, Dst: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	ses, err = Open("cpu-sharded", tiny, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: []walk.Query{{ID: 0, Start: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps on tiny graph")
	}
}

// TestShardedDiscardPaths mirrors TestDiscardPaths for the sharded
// backend.
func TestShardedDiscardPaths(t *testing.T) {
	g := irregularTestGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 120)
	ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: 3, DiscardPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	res, err := ses.Run(context.Background(), Batch{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != nil {
		t.Fatal("DiscardPaths kept paths")
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
}

// TestOpenRejectsOversizedMesh: cpu-sharded's migration mesh is
// quadratic in its worker count and is built on the first Run, so Open
// must refuse a shard × worker shape above shard.MaxMeshWorkers, with an
// error naming the limit. Shards 128 on 2 cores allocated 918 MB per
// run before the bound. The refusal comes before Open borrows a sampler
// (an armed sampler-build fault never fires). The mesh at the limit, and
// the default shape, still open.
func TestOpenRejectsOversizedMesh(t *testing.T) {
	g := testGraph(t)
	cfg, _ := testWorkload(t, g, walk.URW, 1)
	defer fault.Reset()
	fault.Enable(fault.SamplerBuild, fault.Spec{Mode: fault.ModeError})
	for _, c := range []Config{
		{Walk: cfg, Shards: 128},
		{Walk: cfg, Workers: 4096},
	} {
		ses, err := Open("cpu-sharded", g, c)
		if err == nil {
			ses.Close()
			t.Fatalf("Shards %d Workers %d accepted", c.Shards, c.Workers)
		}
		if !strings.Contains(err.Error(), "MaxMeshWorkers") {
			t.Fatalf("Shards %d Workers %d refused with %q, want an error naming MaxMeshWorkers", c.Shards, c.Workers, err)
		}
	}
	if n := fault.Fired(fault.SamplerBuild); n != 0 {
		t.Fatalf("oversized shapes reached the sampler borrow %d times", n)
	}
	fault.Reset()
	for _, c := range []Config{
		{Walk: cfg},
		{Walk: cfg, Shards: shard.MaxMeshWorkers, Workers: 1},
		{Walk: cfg, Shards: 1, Workers: shard.MaxMeshWorkers},
	} {
		ses, err := Open("cpu-sharded", g, c)
		if err != nil {
			t.Fatalf("Shards %d Workers %d refused: %v", c.Shards, c.Workers, err)
		}
		ses.Close()
	}
}
