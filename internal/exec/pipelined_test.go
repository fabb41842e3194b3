package exec

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

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

// TestPipelinedShardedCompose pins the sharding × pipelining composition:
// cpu-pipelined with Shards > 1 runs the cohort stepper inside per-shard
// workers and must stay byte-identical to cpu for every algorithm, shard
// count, and cohort size.
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
						ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Shards: shards, Cohort: cohort})
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
							t.Fatal("sharded+pipelined paths differ from cpu backend")
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
// fails at Open, unsharded and sharded, before any lane array is
// allocated (1<<31 lanes would be tens of GB); walk.MaxCohort still
// opens and runs.
func TestOpenRejectsOversizedCohort(t *testing.T) {
	g := irregularTestGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 8)
	for _, shards := range []int{0, 2} {
		for _, cohort := range []int{walk.MaxCohort + 1, 1 << 31} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Shards: shards, Cohort: cohort, Workers: 1}); err == nil {
				ses.Close()
				t.Fatalf("shards=%d: cohort %d accepted", shards, cohort)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("shards=%d: refused cohort %d allocated %d bytes", shards, cohort, grew)
			}
		}
		ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Shards: shards, Cohort: walk.MaxCohort, Workers: 1})
		if err != nil {
			t.Fatalf("shards=%d: cohort walk.MaxCohort refused: %v", shards, err)
		}
		if shards == 0 {
			if _, err := ses.Run(context.Background(), Batch{Queries: qs}); err != nil {
				t.Fatal(err)
			}
		}
		ses.Close()
	}
}

// TestPipelinedDiscardPaths mirrors TestDiscardPaths for the pipelined
// backend, in both flat and sharded composition.
func TestPipelinedDiscardPaths(t *testing.T) {
	g := irregularTestGraph(t)
	cfg, qs := testWorkload(t, g, walk.URW, 120)
	for _, shards := range []int{0, 2} {
		ses, err := Open("cpu-pipelined", g, Config{Walk: cfg, Shards: shards, DiscardPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ses.Run(context.Background(), Batch{Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Paths != nil {
			t.Fatalf("shards=%d: DiscardPaths kept paths", shards)
		}
		if res.Steps == 0 {
			t.Fatalf("shards=%d: no steps counted", shards)
		}
		ses.Close()
	}
}
