// Sharded execution: partition a graph into edge-balanced shards, run the
// same workload on the flat cpu backend and the cpu-sharded backend, and
// verify the walks are byte-identical — the sharded engine's per-walker
// RNG streams make its output independent of shard count, worker
// interleaving, and migration order. Exits non-zero if any run diverges.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"time"

	"ridgewalker"
)

func main() {
	g, err := ridgewalker.GenerateRMAT(ridgewalker.Graph500(16, 16, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.URW)
	cfg.WalkLength = 80
	queries, err := ridgewalker.RandomQueries(g, cfg, 20000, 7)
	if err != nil {
		log.Fatal(err)
	}

	run := func(backend string, shards int) *ridgewalker.Result {
		ses, err := ridgewalker.OpenBackend(backend, g, ridgewalker.BackendConfig{
			Walk: cfg, Shards: shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ses.Close()
		start := time.Now()
		res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: queries})
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("%-12s shards=%d: %d steps in %v (%.1f MStep/s)\n",
			backend, shards, res.Steps, el.Round(time.Millisecond),
			float64(res.Steps)/el.Seconds()/1e6)
		return &ridgewalker.Result{Paths: res.Paths, Steps: res.Steps}
	}

	flat := run("cpu", 0)
	for _, shards := range []int{2, 4, 8} {
		sharded := run("cpu-sharded", shards)
		if !reflect.DeepEqual(flat.Paths, sharded.Paths) {
			log.Fatalf("shards=%d: walks diverged from the cpu backend", shards)
		}
	}
	fmt.Println("all shard counts byte-identical to the cpu backend")

	// WalkSharded is the one-call variant of the same engine.
	res, err := ridgewalker.WalkSharded(g, queries[:100], cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WalkSharded: %d walks, %d steps\n", len(res.Paths), res.Steps)
}
