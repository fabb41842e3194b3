package exec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// TestPipelinedEquivalenceMatrix is the cross-backend equivalence matrix
// extended to the step-interleaved engine: every algorithm × {cpu,
// cpu-sharded, cpu-pipelined} must be byte-identical on a graph with sinks
// and self-loops, with the pipelined backend swept over cohort sizes
// {1, 3, 64} (cohort 1 degenerates to per-walker stepping; 64 is the
// default in-flight width) and worker counts.
func TestPipelinedEquivalenceMatrix(t *testing.T) {
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
			sharded, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			sres, err := sharded.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sres.Paths, want.Paths) {
				t.Fatal("cpu-sharded paths differ from cpu")
			}
			for _, cohort := range []int{1, 3, 64} {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("cohort=%d/workers=%d", cohort, workers), func(t *testing.T) {
						ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Cohort: cohort, Workers: workers})
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
							t.Fatal("pipelined paths differ from cpu backend")
						}
						// Session reuse: a second batch must be identical.
						again, err := ses.Run(context.Background(), Batch{Queries: qs})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(again.Paths, want.Paths) {
							t.Fatal("second pipelined batch differs")
						}
					})
				}
			}
		})
	}
}

// TestPipelinedShardedCompose pins the cohort stepper inside the sharded
// engine: cpu-sharded at pinned Shards × Cohort tuples must stay
// byte-identical to cpu for every algorithm.
func TestPipelinedShardedCompose(t *testing.T) {
	g := irregularTestGraph(t)
	for _, alg := range walk.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 300)
			cpu, err := Open("cpu", g, Config{Walk: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer cpu.Close()
			want, err := cpu.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4} {
				for _, cohort := range []int{1, 3, 64} {
					t.Run(fmt.Sprintf("shards=%d/cohort=%d", shards, cohort), func(t *testing.T) {
						ses, err := Open("cpu-sharded", g, Config{Walk: cfg, Shards: shards, Cohort: cohort})
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
							t.Fatal("cpu-sharded paths differ from cpu backend")
						}
					})
				}
			}
		})
	}
}

// TestPipelinedStreamMatchesRun pins the Stream entry point of the
// pipelined session.
func TestPipelinedStreamMatchesRun(t *testing.T) {
	g := irregularTestGraph(t)
	for _, alg := range []walk.Algorithm{walk.URW, walk.Node2Vec} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 250)
			ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Cohort: 16})
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

// TestPipelinedOpenValidation pins Open's parameter checks and the closed-
// session guard.
func TestPipelinedOpenValidation(t *testing.T) {
	g := irregularTestGraph(t)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 10
	if _, err := Open("cpu-pipelined", g, Config{Walk: cfg, Cohort: -1}); err == nil {
		t.Fatal("negative cohort accepted")
	}
	if _, err := Open("cpu-pipelined", g, Config{Walk: cfg, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Open("cpu-pipelined", g, Config{Walk: cfg, Shards: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
	// A shard count is refused by the backends that never shard, with an
	// error that names the one that does, before any sampler borrow (an
	// armed sampler-build fault never fires).
	fault.Enable(fault.SamplerBuild, fault.Spec{Mode: fault.ModeError})
	defer fault.Reset()
	for _, backend := range []string{"auto", "cpu-pipelined"} {
		ses, err := Open(backend, g, Config{Walk: cfg, Shards: 2})
		if err == nil {
			ses.Close()
			t.Fatalf("%s accepted Shards 2", backend)
		}
		if !strings.Contains(err.Error(), "cpu-sharded") {
			t.Fatalf("%s: Shards 2 refused with %q, want an error naming cpu-sharded", backend, err)
		}
	}
	if n := fault.Fired(fault.SamplerBuild); n != 0 {
		t.Fatalf("a refused shard count reached the sampler borrow %d times", n)
	}
	fault.Reset()
	ses, err := Open("cpu-pipelined", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Run(context.Background(), Batch{Queries: []walk.Query{{ID: 0, Start: 100}}}); err == nil {
		t.Fatal("Run on closed session accepted")
	}
}

// TestOpenRejectsOversizedCohort: a cohort wider than walk.MaxCohort
// fails at Open, on cpu-pipelined and on cpu-sharded, before any lane
// array is allocated (1<<31 lanes would be tens of GB); walk.MaxCohort
// still opens and runs.
func TestOpenRejectsOversizedCohort(t *testing.T) {
	g := irregularTestGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 8)
	for _, tc := range []struct {
		backend string
		shards  int
	}{{"cpu-pipelined", 0}, {"cpu-sharded", 2}} {
		open := func(cohort int) (Session, error) {
			return Open(tc.backend, g, Config{Walk: cfg, Shards: tc.shards, Cohort: cohort, Workers: 1})
		}
		for _, cohort := range []int{walk.MaxCohort + 1, 1 << 31} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if ses, err := open(cohort); err == nil {
				ses.Close()
				t.Fatalf("%s: cohort %d accepted", tc.backend, cohort)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%s: refused cohort %d allocated %d bytes", tc.backend, cohort, grew)
			}
		}
		ses, err := open(walk.MaxCohort)
		if err != nil {
			t.Fatalf("%s: cohort walk.MaxCohort refused: %v", tc.backend, err)
		}
		if tc.shards == 0 {
			if _, err := ses.Run(context.Background(), Batch{Queries: qs}); err != nil {
				t.Fatal(err)
			}
		}
		ses.Close()
	}
}

// TestPipelinedDiscardPaths mirrors TestDiscardPaths for the pipelined
// backend.
func TestPipelinedDiscardPaths(t *testing.T) {
	g := irregularTestGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 120)
	ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, DiscardPaths: true})
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
