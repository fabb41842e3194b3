package walk

import (
	"fmt"
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// pipelineTestEdges is a labeled-graph edge list with sinks, degree-1
// rows and self-loops — the irregularities that exercise every retire
// path of the cohort stepper.
func pipelineTestEdges() (int, []graph.Edge) {
	const n = 500
	r := rng.New(321)
	var edges []graph.Edge
	for i := 0; i < 6*n; i++ {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(r.Intn(n))
		if src < 40 {
			continue // 0..29 stay sinks, 30..39 get one edge below
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	for v := 30; v < 40; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(r.Intn(n))})
	}
	for v := 40; v < n; v += 17 {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v)})
	}
	return n, edges
}

// pipelineTestGraph builds the irregular graph weighted and labeled.
func pipelineTestGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g := pipelineUnweightedGraph(t)
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// pipelineUnweightedGraph builds the irregular graph bare: uniform and
// rejection samplers only.
func pipelineUnweightedGraph(t testing.TB) *graph.CSR {
	t.Helper()
	n, edges := pipelineTestEdges()
	g, err := graph.Build(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPipelineMatchesRun is the pipelined stepper's golden-equivalence
// matrix: every algorithm the graph admits — on the weighted graph (alias,
// reservoir, metapath), with every weight 1 (alias rows that never
// redirect) and unweighted (uniform, rejection) — × cohort sizes
// {1, 3, 64, 257, larger than the batch} must reproduce Run's paths
// byte-identically, including when a pipeline is reused across batches.
func TestPipelineMatchesRun(t *testing.T) {
	weighted := pipelineTestGraph(t)
	unit := pipelineTestGraph(t)
	for i := range unit.Weights {
		unit.Weights[i] = 1
	}
	unweighted := pipelineUnweightedGraph(t)
	for _, tc := range []struct {
		name string
		g    *graph.CSR
		algs []Algorithm
	}{
		{"weighted", weighted, Algorithms},
		{"unit-weights", unit, []Algorithm{DeepWalk}},
		{"unweighted", unweighted, []Algorithm{URW, PPR, Node2Vec}},
	} {
		g := tc.g
		for _, alg := range tc.algs {
			t.Run(tc.name+"/"+alg.String(), func(t *testing.T) {
				cfg := DefaultConfig(alg)
				cfg.WalkLength = 24
				cfg.Seed = 5
				qs, err := RandomQueries(g, cfg, 300, 9)
				if err != nil {
					t.Fatal(err)
				}
				// RandomQueries avoids sinks; start some walks on them and
				// on the degree-1 rows.
				for i := 0; i < 20; i++ {
					qs[7*i].Start = graph.VertexID(20 + i)
				}
				want, err := Run(g, qs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{1, 3, 64, 257, len(qs) + 10} {
					t.Run(fmt.Sprintf("cohort=%d", size), func(t *testing.T) {
						p, err := NewPipeline(g, cfg, size)
						if err != nil {
							t.Fatal(err)
						}
						for rep := 0; rep < 2; rep++ { // reuse across batches
							paths, steps, err := collectPipeline(p, qs)
							if err != nil {
								t.Fatal(err)
							}
							if steps != want.Steps {
								t.Fatalf("rep %d: steps %d, want %d", rep, steps, want.Steps)
							}
							if !reflect.DeepEqual(paths, want.Paths) {
								t.Fatalf("rep %d: pipelined paths differ from Run", rep)
							}
						}
					})
				}
			})
		}
	}
}

// collectPipeline runs qs through p and returns the paths in batch order.
func collectPipeline(p *Pipeline, qs []Query) ([][]graph.VertexID, int64, error) {
	paths := make([][]graph.VertexID, len(qs))
	steps, err := p.Run(qs, func(i int, _ Query, path []graph.VertexID, _ int64) error {
		if paths[i] != nil {
			return fmt.Errorf("index %d emitted twice", i)
		}
		paths[i] = append([]graph.VertexID(nil), path...)
		return nil
	})
	return paths, steps, err
}

// TestPipelineAbandonReusable pins the two ways a Run ends with lanes
// still in flight — a failing emit and a stop hook firing mid-pass — for
// a direct-draw sampler (URW), the alias store (DeepWalk) and a sampler
// that parks lanes across passes (Node2Vec rejection): the run aborts,
// nothing is emitted after the error, and the next Run on the same
// pipeline is complete and byte-identical to Run.
func TestPipelineAbandonReusable(t *testing.T) {
	weighted := pipelineTestGraph(t)
	unweighted := pipelineUnweightedGraph(t)
	for _, tc := range []struct {
		alg Algorithm
		g   *graph.CSR
	}{{URW, unweighted}, {DeepWalk, weighted}, {Node2Vec, unweighted}} {
		t.Run(tc.alg.String(), func(t *testing.T) {
			g := tc.g
			cfg := DefaultConfig(tc.alg)
			cfg.WalkLength = 12
			cfg.Seed = 3
			qs, err := RandomQueries(g, cfg, 100, 4)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPipeline(g, cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			checkReusable := func(after string) {
				t.Helper()
				got, steps, err := collectPipeline(p, qs)
				if err != nil {
					t.Fatal(err)
				}
				if steps != want.Steps || !reflect.DeepEqual(got, want.Paths) {
					t.Fatalf("pipeline not reusable after %s", after)
				}
			}

			boom := fmt.Errorf("boom")
			emits := 0
			if _, err := p.Run(qs, func(int, Query, []graph.VertexID, int64) error {
				emits++
				if emits == 3 {
					return boom
				}
				return nil
			}); err != boom {
				t.Fatalf("err = %v, want boom", err)
			}
			if emits != 3 {
				t.Fatalf("emit called %d times, want exactly 3 (no emits after an error)", emits)
			}
			checkReusable("an emit error")

			// The hook fires at the fifth poll: lanes are mid-walk, some
			// parked mid-rejection for Node2Vec.
			polls := 0
			p.SetStop(func() bool { polls++; return polls == 5 })
			if _, err := p.Run(qs, func(int, Query, []graph.VertexID, int64) error { return nil }); err != ErrStopped {
				t.Fatalf("err = %v, want ErrStopped", err)
			}
			p.SetStop(nil)
			checkReusable("a stop hook")
		})
	}
}

// TestPipelineRunAllocFree pins the tentpole's allocation claim at the
// stepper level: a Run over a reused Pipeline performs zero allocations,
// for the single-draw, alias, reservoir (Node2Vec on the weighted graph)
// and rejection (Node2Vec on the unweighted graph) sampler families — on
// the flat CSR, over an all-cold tiered store, where every lane decodes
// into buffers it swaps on each hop, and over a snapshot.
func TestPipelineRunAllocFree(t *testing.T) {
	weighted, unweighted := pipelineTestGraph(t), pipelineUnweightedGraph(t)
	flat := func(g *graph.CSR) rowForm { return rowForm{cohort: g, ref: g} }
	for _, tc := range []struct {
		name string
		alg  Algorithm
		f    rowForm
	}{
		{"URW", URW, flat(weighted)},
		{"PPR", PPR, flat(weighted)},
		{"DeepWalk", DeepWalk, flat(weighted)},
		{"Node2Vec", Node2Vec, flat(weighted)},
		{"Node2Vec-unweighted", Node2Vec, flat(unweighted)},
		{"Node2Vec-cold-rejection", Node2Vec, allColdForm(t, "", unweighted)},
		{"Node2Vec-cold-reservoir", Node2Vec, allColdForm(t, "", weighted)},
		{"DeepWalk-snapshot", DeepWalk, snapshotForm(t, "", weighted)},
	} {
		f, alg := tc.f, tc.alg
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(alg)
			cfg.WalkLength = 16
			cfg.Seed = 7
			qs, err := RandomQueries(f.cohort, cfg, 64, 11)
			if err != nil {
				t.Fatal(err)
			}
			s, err := BuildSampler(f.cohort, cfg)
			if f.snap != nil {
				// Alias rows must follow the overlay's rows.
				var ref *sampling.SamplerRef
				if ref, err = AcquireSamplerSnap(f.snap, cfg); err == nil {
					defer ref.Release()
					s = ref.Sampler()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPipelineWithSampler(f.cohort, cfg, s, 16)
			if err != nil {
				t.Fatal(err)
			}
			p.SetRows(f.rows)
			emit := func(int, Query, []graph.VertexID, int64) error { return nil }
			// Warm once (lazy growth, if any, happens here).
			if _, err := p.Run(qs, emit); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := p.Run(qs, emit); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("pipelined Run allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestCohortScratchWithinBound runs weighted Node2Vec at cohort 64 over
// an all-cold tiered store, where every lane decodes its current row,
// the row's weights and, resuming or moving, its previous row: the
// lanes' buffers must stay within the bound the execution layer reports,
// and the pipeline must still match Run.
func TestCohortScratchWithinBound(t *testing.T) {
	g := pipelineTestGraph(t)
	f := allColdForm(t, "", g)
	cfg := DefaultConfig(Node2Vec)
	cfg.WalkLength = 40
	qs, err := RandomQueries(g, cfg, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(g, cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRows(f.rows)
	paths, steps, err := collectPipeline(p, qs)
	if err != nil {
		t.Fatal(err)
	}
	if steps != want.Steps || !reflect.DeepEqual(paths, want.Paths) {
		t.Fatal("all-cold pipelined paths differ from Run")
	}
	got, bound := p.cohort.ScratchBytes(), ScratchBound(f.rows.Tiered(), sampling.KindReservoir, 64)
	if got == 0 || got > bound {
		t.Fatalf("lanes hold %d B of decode scratch, want 0 < it <= %d", got, bound)
	}
}

// TestCohortAdmitBounds pins cohort capacity behavior.
func TestCohortAdmitBounds(t *testing.T) {
	g := pipelineTestGraph(t)
	cfg := DefaultConfig(URW)
	cfg.WalkLength = 4
	s, err := BuildSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCohort(g, cfg, s, 0); err == nil {
		t.Fatal("zero-capacity cohort accepted")
	}
	if _, err := NewCohort(g, cfg, s, MaxCohort+1); err == nil {
		t.Fatal("cohort above MaxCohort accepted")
	}
	c, err := NewCohort(g, cfg, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	var st [3]State
	var r [3]rng.Stream
	for i := range st {
		st[i].Start(Query{ID: uint32(i), Start: 100})
	}
	if !c.Admit(&st[0], &r[0], 0) || !c.Admit(&st[1], &r[1], 1) {
		t.Fatal("admission below capacity refused")
	}
	if c.Admit(&st[2], &r[2], 2) {
		t.Fatal("admission above capacity accepted")
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d, want 2/2", c.Len(), c.Cap())
	}
}
