// Step-interleaved execution: run the same DeepWalk workload on the flat
// cpu backend and the cpu-pipelined backend — which advances a cohort of
// in-flight walkers together through batched Row/Sample/Column/Move stages so
// CSR row fetches overlap sampling — and verify the walks are
// byte-identical at every cohort size, and inside the cpu-sharded
// backend's shard workers. Exits non-zero if any run diverges.
//
//	go run ./examples/pipelined
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
	g.AttachWeights() // DeepWalk samples neighbors weight-proportionally
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	cfg := ridgewalker.DefaultWalkConfig(ridgewalker.DeepWalk)
	cfg.WalkLength = 80
	queries, err := ridgewalker.RandomQueries(g, cfg, 20000, 7)
	if err != nil {
		log.Fatal(err)
	}

	run := func(backend string, cohort, shards int) *ridgewalker.Result {
		ses, err := ridgewalker.OpenBackend(backend, g, ridgewalker.BackendConfig{
			Walk: cfg, Cohort: cohort, Shards: shards,
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
		fmt.Printf("%-13s cohort=%-3d shards=%d: %d steps in %v (%.1f MStep/s)\n",
			backend, cohort, shards, res.Steps, el.Round(time.Millisecond),
			float64(res.Steps)/el.Seconds()/1e6)
		return &ridgewalker.Result{Paths: res.Paths, Steps: res.Steps}
	}

	flat := run("cpu", 0, 0)
	for _, cohort := range []int{16, 64, 256} {
		pipelined := run("cpu-pipelined", cohort, 0)
		if !reflect.DeepEqual(flat.Paths, pipelined.Paths) {
			log.Fatalf("cohort=%d: walks diverged from the cpu backend", cohort)
		}
	}
	// The cpu-sharded backend's shard workers run the same cohort stepper,
	// and walkers migrate between shards mid-cohort.
	sharded := run("cpu-sharded", 64, 4)
	if !reflect.DeepEqual(flat.Paths, sharded.Paths) {
		log.Fatal("cpu-sharded walks diverged from the cpu backend")
	}
	fmt.Println("all cohort sizes (and cpu-sharded) byte-identical to the cpu backend")

	// WalkPipelined is the one-call variant of the same engine.
	res, err := ridgewalker.WalkPipelined(g, queries[:100], cfg, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WalkPipelined: %d walks, %d steps\n", len(res.Paths), res.Steps)
}
