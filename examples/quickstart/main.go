// Quickstart: build a small graph, run uniform random walks on the
// cycle-level RidgeWalker model, and serve the same workload through the
// batched walk service. The pipelined engine's walks and every service
// reply are checked against the software engine; the program exits
// non-zero on the first divergence.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"sync"

	"ridgewalker"
)

func main() {
	// A synthetic power-law graph: 2^12 vertices, ~32k directed edges with
	// the skewed Graph500 initiator — the workload shape GRW accelerators
	// are built for.
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Graph500(12, 8, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	// Uniform random walks, 1000 queries of up to 40 hops.
	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 40
	queries, err := ridgewalker.RandomQueries(g, cfg, 1000, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Run on the simulated accelerator: 16 asynchronous pipelines over the
	// U55C HBM2 model. (The simulator is not the only pipelined engine —
	// the "cpu-pipelined" backend runs the same Row/Sample/Column/Move
	// pipelining in software over cohorts of walkers; see below.)
	res, stats, err := ridgewalker.Simulate(g, queries, ridgewalker.SimOptions{
		Platform: ridgewalker.U55C,
		Walk:     cfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("completed %d walks, %d total steps\n", stats.QueriesDone, res.Steps)
	fmt.Printf("simulated throughput: %.0f MStep/s (%.0f%% of the Eq.(1) random-access peak)\n",
		stats.ThroughputMSteps(), 100*stats.Eq1Utilization())

	// Walks are ordinary vertex sequences.
	fmt.Printf("first walk: %v\n", res.Paths[0])

	// The same workload on the multi-core software engine gives identical
	// statistics (the simulator is validated against it).
	sw, err := ridgewalker.WalkParallel(g, queries, cfg, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("software engine took %d steps across the same %d queries\n", sw.Steps, len(queries))

	// The step-interleaved software engine — cohorts of walkers advanced
	// together through batched Row/Sample/Column/Move stages, so CSR row
	// fetches overlap sampling — takes byte-identical walks.
	pl, err := ridgewalker.WalkPipelined(g, queries, cfg, 64)
	if err != nil {
		log.Fatal(err)
	}
	mustMatch("pipelined engine", pl.Paths, sw.Paths)
	fmt.Printf("pipelined engine took %d steps (byte-identical walks)\n", pl.Steps)

	// Serving mode: a Service coalesces concurrent requests into shared
	// backend batches. Every engine is available by name ("cpu" here;
	// "ridgewalker", "lightrw", ... — see ridgewalker.Backends()), and each
	// requester gets exactly the walks it asked for, byte-identical to a
	// solo run.
	svc, err := ridgewalker.NewService(g, ridgewalker.ServiceConfig{Backend: "cpu"})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lo, hi := r*250, (r+1)*250
			res, err := svc.Submit(context.Background(), cfg, queries[lo:hi])
			if err != nil {
				log.Fatal(err)
			}
			mustMatch(fmt.Sprintf("request %d", r), res.Paths, sw.Paths[lo:hi])
			fmt.Printf("request %d: %d walks, %d steps (byte-identical walks)\n", r, len(res.Paths), res.Steps)
		}(r)
	}
	wg.Wait()
	m := svc.Metrics()
	fmt.Printf("service metrics: %+v over %d batches\n",
		m.PerAlgorithm["URW"], m.PerBackend["cpu"].Batches)
}

// mustMatch exits non-zero unless got holds exactly the walks in want.
func mustMatch(what string, got, want [][]ridgewalker.VertexID) {
	if len(got) != len(want) {
		log.Fatalf("%s: %d walks, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			log.Fatalf("%s: walk %d diverged from the software engine:\n got %v\nwant %v", what, i, got[i], want[i])
		}
	}
}
