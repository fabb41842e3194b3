package bench

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"ridgewalker/internal/exec"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

func init() {
	register(Experiment{ID: "shard", Title: "Sharded CPU engine: shard-count sweep vs flat cpu backend",
		Run: runShardSweep})
}

// runShardSweep compares the flat cpu backend against the cpu-sharded
// engine across shard counts on a dataset twin. Unlike the figure
// reproductions this measures wall-clock software throughput, not
// simulated cycles: the table shows how partition locality and migration
// overhead trade off as shards grow, alongside the partitioner's edge-cut
// fraction and the realized migrations per walk.
func runShardSweep(c *Context, w io.Writer) error {
	g, err := c.Twin("LJ")
	if err != nil {
		return err
	}
	wcfg, qs, err := c.workload(g, walk.URW)
	if err != nil {
		return err
	}
	t := newTable(w, "Sharded engine sweep — URW on LJ twin (wall-clock)")
	t.row("backend", "shards", "cut %", "migr/walk", "MStep/s", "vs cpu")

	// Flat cpu baseline through the execution layer.
	ses, err := exec.Open("cpu", g, exec.Config{Walk: wcfg, DiscardPaths: true})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := ses.Run(context.Background(), exec.Batch{Queries: qs})
	ses.Close()
	if err != nil {
		return err
	}
	base := float64(res.Steps) / time.Since(start).Seconds() / 1e6
	t.row("cpu", "-", "-", "-", base, 1.0)

	for _, k := range []int{1, 2, 4, 8} {
		if k > g.NumVertices {
			break
		}
		p, err := shard.Partition(g, k)
		if err != nil {
			return err
		}
		eng, err := shard.NewEngine(g, p, wcfg, shard.EngineConfig{Cohort: exec.DefaultCohort})
		if err != nil {
			return err
		}
		start := time.Now()
		var steps atomic.Int64
		stats, err := eng.Run(context.Background(), qs,
			func(_ int, _ walk.Query, _ []graph.VertexID, st int64) error {
				steps.Add(st)
				return nil
			})
		if err != nil {
			return err
		}
		ms := float64(steps.Load()) / time.Since(start).Seconds() / 1e6
		t.row("cpu-sharded", k, 100*p.CutFraction(),
			float64(stats.Migrations)/float64(len(qs)), ms, ms/base)
	}
	return t.flush()
}
