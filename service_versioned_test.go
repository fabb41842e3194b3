package ridgewalker_test

// Dynamic-graph battery for the Service: mutation visibility and
// equivalence (served walks over the overlay match a cold service over
// the folded graph), epoch metrics, session pruning, and a
// mutate-while-serving stress test written for `go test -race`.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ridgewalker"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

func serviceMutations(g *ridgewalker.Graph) (ins, del []ridgewalker.Edge) {
	n := ridgewalker.VertexID(g.NumVertices)
	for i := 0; i < 32; i++ {
		ins = append(ins, ridgewalker.Edge{Src: ridgewalker.VertexID(i*41) % n, Dst: ridgewalker.VertexID(i*67+5) % n})
	}
	return ins, ins[:8]
}

// TestServiceMutationEquivalence mutates a serving service and checks the
// post-mutation results are byte-identical to a fresh service over the
// compacted graph — and that pre-mutation sessions, results, and the
// epoch metrics all behave.
func TestServiceMutationEquivalence(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.DeepWalk)
	cfg.WalkLength = 18
	cfg.Seed = 9
	qs, err := ridgewalker.RandomQueries(g, cfg, 150, 21)
	if err != nil {
		t.Fatal(err)
	}

	before, err := svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if svc.GraphEpoch() != 0 {
		t.Fatalf("pristine epoch %d", svc.GraphEpoch())
	}

	ins, del := serviceMutations(g)
	if err := svc.InsertEdges(ins); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	st := svc.GraphStats()
	if st.Epoch != 2 || st.Inserts != uint64(len(ins)) || st.Deletes != uint64(len(del)) || st.DirtyRows == 0 {
		t.Fatalf("stats after mutations: %+v", st)
	}

	after, err := svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(after.Paths, before.Paths) {
		t.Fatal("mutations did not change served trajectories")
	}

	// Golden: a fresh service over the folded final graph.
	final := ridgewalker.NewVersionedGraph(g)
	if err := final.InsertEdges(ins); err != nil {
		t.Fatal(err)
	}
	if err := final.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	cold, err := ridgewalker.NewService(final.Compact(), ridgewalker.ServiceConfig{Backend: "cpu", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	want, err := cold.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Paths, want.Paths) {
		t.Fatal("overlay-served walks differ from cold service over the compacted graph")
	}

	// Compacting the serving service must not change results either.
	if fresh := svc.CompactGraph(); fresh == g {
		t.Fatal("CompactGraph returned the unfolded base")
	}
	compacted, err := svc.Submit(ctx, cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(compacted.Paths, want.Paths) {
		t.Fatal("post-compaction walks diverged")
	}

	m := svc.Metrics()
	if len(m.PerEpoch) < 3 {
		t.Fatalf("PerEpoch tracked %d epochs, want >= 3 (0, 2, 3): %+v", len(m.PerEpoch), m.PerEpoch)
	}
	if m.PerEpoch[0].Requests == 0 || m.PerEpoch[2].Requests == 0 {
		t.Fatalf("PerEpoch missing served epochs: %+v", m.PerEpoch)
	}
}

// TestServiceMutationRejectsBadEdges pins the mutation entry points'
// error paths: out-of-range and absent-edge batches are rejected whole
// and leave the epoch untouched.
func TestServiceMutationRejectsBadEdges(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	oob := ridgewalker.VertexID(g.NumVertices)
	if err := svc.InsertEdges([]ridgewalker.Edge{{Src: 0, Dst: oob}}); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := svc.DeleteEdges([]ridgewalker.Edge{{Src: 0, Dst: oob}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if svc.GraphEpoch() != 0 {
		t.Fatalf("failed mutations advanced the epoch to %d", svc.GraphEpoch())
	}
}

// TestServiceMutateWhileServingRace is the -race stress test: submitters
// and streamers hammer the service while a mutator inserts, deletes, and
// compacts. Every reply must be internally consistent — all paths from
// one epoch's view, verified against a per-epoch golden computed after
// the fact — and nothing may deadlock, leak, or tear.
func TestServiceMutateWhileServingRace(t *testing.T) {
	// The auto backend adds the planner's per-class sampler pins, which
	// submitters take while compactions release them.
	for _, backend := range []string{"cpu", "auto"} {
		t.Run(backend, func(t *testing.T) {
			g := serviceTestGraph(t)
			svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
				Backend: backend,
				Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ctx := context.Background()
			cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
			cfg.WalkLength = 10
			cfg.Seed = 5
			qs, err := ridgewalker.RandomQueries(g, cfg, 40, 31)
			if err != nil {
				t.Fatal(err)
			}

			// The mutator applies a deterministic schedule; goldens for every
			// epoch's merged view are reconstructed afterwards from the same
			// schedule, so each reply can be matched to some consistent epoch.
			ins, _ := serviceMutations(g)
			rounds := raceIterations(t)

			var wg sync.WaitGroup
			errCh := make(chan error, 16)
			results := make(chan [][]ridgewalker.VertexID, 4*4*rounds)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < 4*rounds; n++ {
						got, err := svc.Submit(ctx, cfg, qs)
						if err != nil {
							errCh <- err
							return
						}
						results <- got.Paths
					}
				}()
			}
			for r := 0; r < rounds; r++ {
				batch := ins[(r*4)%len(ins) : (r*4)%len(ins)+4]
				if err := svc.InsertEdges(batch); err != nil {
					t.Fatal(err)
				}
				if r%3 == 2 {
					if err := svc.DeleteEdges(batch[:2]); err != nil {
						t.Fatal(err)
					}
				}
				if r%5 == 4 {
					svc.CompactGraph()
				}
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			close(results)

			// Rebuild the golden for every epoch the schedule produced and check
			// each captured reply matches exactly one of them.
			goldens := map[string]bool{}
			record := func(g2 *ridgewalker.Graph) {
				res, err := ridgewalker.Walk(g2, qs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				goldens[pathsKey(res.Paths)] = true
			}
			replay := ridgewalker.NewVersionedGraph(g)
			record(replay.Compact()) // epoch 0 == base
			for r := 0; r < rounds; r++ {
				batch := ins[(r*4)%len(ins) : (r*4)%len(ins)+4]
				if err := replay.InsertEdges(batch); err != nil {
					t.Fatal(err)
				}
				record(replay.Compact())
				if r%3 == 2 {
					if err := replay.DeleteEdges(batch[:2]); err != nil {
						t.Fatal(err)
					}
					record(replay.Compact())
				}
			}
			checked := 0
			for paths := range results {
				if !goldens[pathsKey(paths)] {
					t.Fatal("a reply matches no epoch's consistent view — torn snapshot served")
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("stress loop captured no results")
			}
		})
	}
}

func pathsKey(paths [][]ridgewalker.VertexID) string {
	var b []byte
	for _, p := range paths {
		for _, v := range p {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		b = append(b, 0xFF, 0xFF, 0xFF, 0xFE)
	}
	return string(b)
}

// TestServiceEpochSwitchKeepsBaseSampler pins what an epoch switch costs
// a weighted class. An edge mutation leaves the previous epoch's idle
// session cached for one generation, so the class's base alias store
// stays referenced and the new epoch's session derives its dirty rows
// from it; pruning that session first would drop the store's last
// reference and make every epoch's first read rebuild it whole. A
// compaction replaces the base, so everything over the old one goes at
// once.
func TestServiceEpochSwitchKeepsBaseSampler(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu-pipelined", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.DeepWalk)
	cfg.WalkLength = 18
	cfg.Seed = 9
	qs, err := ridgewalker.RandomQueries(g, cfg, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := walk.SamplerSpec(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := sampling.DefaultRegistry()
	if n := reg.Refs(g, spec); n != 0 {
		t.Fatalf("stale base refs before test: %d", n)
	}
	if _, err := svc.Submit(ctx, cfg, qs); err != nil {
		t.Fatal(err)
	}
	ins, _ := serviceMutations(g)
	for i := 0; i < 4; i++ {
		// Alternate inserting and deleting the same edges: four epochs.
		mutate := svc.InsertEdges
		if i%2 == 1 {
			mutate = svc.DeleteEdges
		}
		if err := mutate(ins); err != nil {
			t.Fatal(err)
		}
		if n := reg.Refs(g, spec); n == 0 {
			t.Fatalf("epoch %d: the mutation dropped the base alias store's last reference", svc.GraphEpoch())
		}
		if _, err := svc.Submit(ctx, cfg, qs); err != nil {
			t.Fatal(err)
		}
		// One generation, not a growing tail: the base store is borrowed
		// by at most the previous and the current epoch's samplers.
		if n := reg.Refs(g, spec); n > 2 {
			t.Fatalf("epoch %d: %d references to the base alias store, want at most 2", svc.GraphEpoch(), n)
		}
	}
	svc.CompactGraph()
	if n := reg.Refs(g, spec); n != 0 {
		t.Fatalf("after compaction the old base's alias store still has %d references", n)
	}
}

// TestServicePlannedSamplerPinned: under the auto backend a class's
// sampler store is borrowed from its first plan resolution on, so it
// outlives any one session (epoch switches derive their dirty rows from
// it); the borrow goes with the planner at compaction and with the
// service at Close.
func TestServicePlannedSamplerPinned(t *testing.T) {
	g := serviceTestGraph(t)
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.DeepWalk)
	cfg.WalkLength = 18
	qs, err := ridgewalker.RandomQueries(g, cfg, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := walk.SamplerSpec(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := sampling.DefaultRegistry()
	if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
		t.Fatal(err)
	}
	// The class pin plus the served session.
	if n := reg.Refs(g, spec); n != 2 {
		t.Fatalf("base alias store has %d references after the first request, want 2 (pin + session)", n)
	}
	ins, _ := serviceMutations(g)
	if err := svc.InsertEdges(ins); err != nil {
		t.Fatal(err)
	}
	compacted := svc.CompactGraph()
	if n := reg.Refs(g, spec); n != 0 {
		t.Fatalf("after compaction the old base's alias store still has %d references", n)
	}
	if _, err := svc.Submit(context.Background(), cfg, qs); err != nil {
		t.Fatal(err)
	}
	if n := reg.Refs(compacted, spec); n != 2 {
		t.Fatalf("new base's alias store has %d references, want 2 (pin + session)", n)
	}
	svc.Close()
	if n := reg.Refs(compacted, spec); n != 0 {
		t.Fatalf("after Close the alias store still has %d references", n)
	}
}
