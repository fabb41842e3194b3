// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each executes the
// corresponding internal/bench experiment at reduced scale and reports
// simulated GRW steps per wall-second as steps/s; `cmd/benchfig` runs the
// same experiments at full scale with the paper-comparison columns.
package ridgewalker_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ridgewalker"
	"ridgewalker/internal/bench"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

// benchOptions keeps individual iterations around a second.
func benchOptions() bench.Options {
	return bench.Options{Shrink: 6, Queries: 300, WalkLength: 40, Seed: 42}
}

// runExperiment is the shared driver for the per-figure benchmarks.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	c := bench.NewContext(benchOptions())
	// Warm the graph cache outside the timed region.
	if _, err := c.Twin("WG"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(c, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3a(b *testing.B)  { runExperiment(b, "fig3a") }
func BenchmarkFig8a(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { runExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)  { runExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B)  { runExperiment(b, "fig8d") }
func BenchmarkFig9a(b *testing.B)  { runExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { runExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)  { runExperiment(b, "fig9c") }
func BenchmarkFig9d(b *testing.B)  { runExperiment(b, "fig9d") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "tab3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "tab4") }
func BenchmarkObs2(b *testing.B)   { runExperiment(b, "obs2") }
func BenchmarkMicro(b *testing.B)  { runExperiment(b, "micro") }

// BenchmarkSimulatorThroughput measures the cycle-level simulator itself:
// simulated GRW steps per wall-clock second for the full U55C model.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Balanced(12, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 40
	qs, err := ridgewalker.RandomQueries(g, cfg, 2000, 3)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := ridgewalker.Simulate(g, qs, ridgewalker.SimOptions{
			Walk: cfg, DiscardPaths: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += st.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "simsteps/s")
}

// BenchmarkServiceThroughput measures end-to-end serving throughput:
// concurrent requests coalesced into shared batches on the cpu backend,
// reported as served GRW steps per wall-second.
func BenchmarkServiceThroughput(b *testing.B) {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Balanced(14, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 4096, 3)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{
		Backend:  "cpu",
		MaxBatch: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	const requests = 16
	chunk := len(qs) / requests
	var steps atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < requests; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				res, err := svc.Submit(context.Background(), cfg, qs[r*chunk:(r+1)*chunk])
				if err != nil {
					b.Error(err)
					return
				}
				steps.Add(res.Steps)
			}(r)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(steps.Load())/b.Elapsed().Seconds(), "steps/s")
}

// shardedBenchGraph lazily builds (and caches for the whole bench run) the
// RMAT-22 dataset the sharded-throughput acceptance sweep is defined on:
// 2^22 vertices × edge factor 16, Graph500 skew — ~0.5 GB of CSR, large
// enough that partition locality is measurable. -short swaps in RMAT-18 so
// the sweep stays laptop-friendly.
var shardedBenchGraph = struct {
	sync.Once
	g   *ridgewalker.Graph
	err error
}{}

func shardedGraph(b *testing.B) *ridgewalker.Graph {
	b.Helper()
	shardedBenchGraph.Do(func() {
		scale := 22
		if testing.Short() {
			scale = 18
		}
		shardedBenchGraph.g, shardedBenchGraph.err =
			ridgewalker.GenerateRMAT(ridgewalker.Graph500(scale, 16, 1))
	})
	if shardedBenchGraph.err != nil {
		b.Fatal(shardedBenchGraph.err)
	}
	return shardedBenchGraph.g
}

// BenchmarkShardedThroughput sweeps the cpu-sharded backend over shard
// counts against the flat cpu baseline on the RMAT-22 dataset, reporting
// walks/s and steps/s. How much sharding wins is hardware-dependent: the
// gain comes from concentrating row-pointer/neighbor-list traffic into
// per-shard working sets, so machines whose last-level cache already holds
// the whole CSR see only a modest edge, while multi-core machines with
// ordinary cache sizes see the full partition-locality benefit.
func BenchmarkShardedThroughput(b *testing.B) {
	g := shardedGraph(b)
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, backend string, shards int) {
		ses, err := ridgewalker.OpenBackend(backend, g, ridgewalker.BackendConfig{
			Walk: cfg, Shards: shards, DiscardPaths: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer ses.Close()
		var steps, walks int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: qs})
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
			walks += int64(len(qs))
		}
		b.ReportMetric(float64(walks)/b.Elapsed().Seconds(), "walks/s")
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("cpu", func(b *testing.B) { run(b, "cpu", 0) })
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			run(b, "cpu-sharded", shards)
		})
	}
}

// BenchmarkShardMigrationAllocs pins the allocation-free migration rings
// (run with -benchmem): one op is one full Run of a migration-heavy
// workload on a warmed engine — a directed ring crossing 4 shard
// boundaries, so every walk migrates several times — and allocs/op must
// stay at the per-Run bookkeeping constant (a handful: run struct,
// completion channels, goroutine starts), independent of the thousands
// of migrations inside the op. allocs/migration is reported explicitly.
func BenchmarkShardMigrationAllocs(b *testing.B) {
	const n = 256
	edges := make([]ridgewalker.Edge, n)
	for i := range edges {
		edges[i] = ridgewalker.Edge{Src: ridgewalker.VertexID(i), Dst: ridgewalker.VertexID((i + 1) % n)}
	}
	g, err := ridgewalker.NewGraph(n, edges, true)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs := make([]walk.Query, 1024)
	for i := range qs {
		qs[i] = walk.Query{ID: uint32(i), Start: ridgewalker.VertexID(i % n)}
	}
	for _, mode := range []struct {
		name   string
		cohort int
	}{{"cohort-1", 1}, {"cohort-32", 32}} {
		b.Run(mode.name, func(b *testing.B) {
			p, err := shard.Partition(g, 4)
			if err != nil {
				b.Fatal(err)
			}
			e, err := shard.NewEngine(g, p, cfg, shard.EngineConfig{Workers: 4, Cohort: mode.cohort})
			if err != nil {
				b.Fatal(err)
			}
			emit := func(int, walk.Query, []ridgewalker.VertexID, int64) error { return nil }
			// Warm the mesh pool so the op measures the steady state.
			if _, err := e.Run(context.Background(), qs, emit); err != nil {
				b.Fatal(err)
			}
			var migrations int64
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := e.Run(context.Background(), qs, emit)
				if err != nil {
					b.Fatal(err)
				}
				migrations += stats.Migrations
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if migrations > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(migrations), "allocs/migration")
			}
		})
	}
}

// BenchmarkPipelinedThroughput is the acceptance sweep for the
// step-interleaved engine: DeepWalk (alias-sampled, weighted) on the
// RMAT-22 dataset (RMAT-18 under -short), flat cpu vs cpu-pipelined
// across cohort sizes, reporting walks/s and steps/s. The pipelined win
// comes from overlapping CSR row fetches across a cohort's walkers, so it
// grows with the gap between the graph's working set and the cache
// hierarchy; `benchfig -json BENCH.json` records the same cpu-pipelined/cpu
// ratio machine-readably.
func BenchmarkPipelinedThroughput(b *testing.B) {
	g := bench.Weighted(shardedGraph(b))
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.DeepWalk)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 20000, 3)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, backend string, cohort int) {
		ses, err := ridgewalker.OpenBackend(backend, g, ridgewalker.BackendConfig{
			Walk: cfg, Cohort: cohort, DiscardPaths: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer ses.Close()
		var steps, walks int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: qs})
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
			walks += int64(len(qs))
		}
		b.ReportMetric(float64(walks)/b.Elapsed().Seconds(), "walks/s")
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("cpu", func(b *testing.B) { run(b, "cpu", 0) })
	for _, cohort := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("pipelined-%d", cohort), func(b *testing.B) {
			run(b, "cpu-pipelined", cohort)
		})
	}
}

// BenchmarkPipelinedAllocsPerStep pins the zero-allocation claim for the
// pipelined stepper itself (run with -benchmem): one op is one full batch
// through a reused walk.Pipeline with a non-copying emit, so allocs/op is
// allocations per batch — it must be 0, and per-step allocations are
// bounded above by it.
func BenchmarkPipelinedAllocsPerStep(b *testing.B) {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Balanced(14, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 4096, 3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := walk.NewPipeline(g, cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(int, ridgewalker.Query, []ridgewalker.VertexID, int64) error { return nil }
	// Warm once: a lane's path buffer is allocated at its first use.
	if _, err := p.Run(qs, emit); err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := p.Run(qs, emit)
		if err != nil {
			b.Fatal(err)
		}
		steps += st
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkWalkAllocsPerStep pins the zero-allocation claim of the serving
// hot path (run with -benchmem): one op is one full walk on a reused
// Walker, so allocs/op is allocations per walk — it must be 0, and per-step
// allocations are bounded above by it.
func BenchmarkWalkAllocsPerStep(b *testing.B) {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Balanced(14, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 4096, 3)
	if err != nil {
		b.Fatal(err)
	}
	w, err := walk.NewWalker(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := w.Walk(qs[i%len(qs)])
		steps += st
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkSoftwareEngine measures the multi-core CPU engine (the
// ThunderRW-style path applications can use directly).
func BenchmarkSoftwareEngine(b *testing.B) {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Balanced(14, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	qs, err := ridgewalker.RandomQueries(g, cfg, 5000, 3)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ridgewalker.WalkParallel(g, qs, cfg, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}
