package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

func init() {
	Register(pipelinedBackend{})
}

// DefaultCohort is the cpu-pipelined backend's in-flight walker count per
// worker when Config.Cohort is zero, and (as plan.DefaultCohort) the
// cohort of the planner's stats-only plan. Each stage loop drains its misses before the next
// starts, so a wider cohort amortizes that drain over more lanes; past a
// few hundred lanes the per-lane state (≈ 0.5 KB with an 80-hop path)
// outgrows L2 and the gain stops. Picked from a sweep on RMAT-20 with two
// workers and 65 536-query URW batches: c64 40, c256 58, c1024 57
// Mstep/s (PPR 19 / 29 / 33, DeepWalk 9.4 / 10.4 / 10.9, Node2Vec 7.3 /
// 7.7 / 6.5).
const DefaultCohort = plan.DefaultCohort

// pipelinedBackend is the step-interleaved software engine: the walk step
// is decomposed into Row Access (CSR row bounds), Sample (a direct draw,
// or the stage-resumable Propose/Accept decision), Column Access (the one
// drawn column entry), and Move (state advance, path emit,
// retire/respawn), each run as a tight batched loop over a cohort of
// in-flight walkers (walk.Cohort) — the software shadow
// of the paper's perfectly pipelined datapath, in the spirit of
// ThunderRW's step interleaving. Per-walker RNG streams keep output
// byte-identical to the cpu backend for the same seed at any cohort size
// or worker count.
type pipelinedBackend struct{}

func (pipelinedBackend) Name() string { return "cpu-pipelined" }

func (pipelinedBackend) Description() string {
	return "step-interleaved software engine: cohort-batched Row Access/Sample/Column Access/Move pipeline"
}

// MergesBatches implements BatchMerger: per-lane RNG streams make walks
// independent of batch composition and cohort packing.
func (pipelinedBackend) MergesBatches() bool { return true }

// SupportsMemoryTiering implements MemoryTierer: the cohort Row Access
// stage serves hot rows from the arena and decodes cold rows per lane.
func (pipelinedBackend) SupportsMemoryTiering() bool { return true }

// SupportsVersionedGraphs implements VersionedGrapher: the cohort Row
// Access stage consults the epoch overlay before the base row.
func (pipelinedBackend) SupportsVersionedGraphs() bool { return true }

// Heartbeats implements Heartbeater: the cohort stepper bumps
// Batch.Heartbeat once per cohort pass.
func (pipelinedBackend) Heartbeats() bool { return true }

// errShardsPin refuses a shard count on a backend that never shards: the
// partitioned engine is reached only by naming cpu-sharded.
func errShardsPin(backend string, shards int) error {
	return fmt.Errorf("exec: %s does not shard (Shards %d); open cpu-sharded to run the partitioned engine", backend, shards)
}

func (pipelinedBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("exec: cpu-pipelined workers %d, want >= 0", cfg.Workers)
	}
	if cfg.Cohort < 0 {
		return nil, fmt.Errorf("exec: cpu-pipelined cohort %d, want >= 0", cfg.Cohort)
	}
	if cfg.Shards != 0 {
		return nil, errShardsPin("cpu-pipelined", cfg.Shards)
	}
	cohort := cfg.Cohort
	if cohort == 0 {
		cohort = DefaultCohort
	}
	// The sampler is borrowed from the process-wide registry, so
	// pipelined, sharded, and flat cpu sessions over the same graph all
	// read one store. A memory budget swaps both borrows for their tiered
	// counterparts; the cohort Row Access stage then decodes cold rows
	// into per-lane scratch.
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &pipelinedSession{g: g, discard: cfg.DiscardPaths, maxPath: cfg.Walk.WalkLength + 1, sampler: ref, tier: ts}
	s.pipes = make([]*walk.Pipeline, workers)
	for i := range s.pipes {
		p, err := walk.NewPipelineWithSampler(g, cfg.Walk, ref.Sampler(), cohort)
		if err != nil {
			ts.release()
			ref.Release()
			return nil, err
		}
		if ts != nil {
			p.SetTiered(ts.gref.Store())
		}
		if cfg.Snapshot != nil {
			p.SetSnapshot(cfg.Snapshot)
		}
		s.pipes[i] = p
	}
	return s, nil
}

// pipelinedSession mirrors cpuSession's worker-pool structure, with each
// worker driving its contiguous chunk of the batch through a reusable
// walk.Pipeline instead of a sequential Walker.
type pipelinedSession struct {
	mu      sync.Mutex // serializes Run/Stream: pipelines are single-batch state
	g       *graph.CSR
	discard bool
	maxPath int // longest possible path, WalkLength+1
	sampler *sampling.SamplerRef
	tier    *tierState
	pipes   []*walk.Pipeline
}

// MemoryReport implements MemoryReporter (nil for untiered sessions).
func (s *pipelinedSession) MemoryReport() *MemoryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.report()
}

// SamplerBytes reports the resident size of the session's (shared)
// sampler state.
func (s *pipelinedSession) SamplerBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampler == nil {
		return 0
	}
	return sampling.Footprint(s.sampler.Sampler())
}

// forEachWalk partitions the batch into contiguous chunks, one per worker
// pipeline, and invokes emit for every finished walk. Within a chunk,
// delivery order follows lane retirement, not batch order; the index
// passed to emit is the query's position in the whole batch. The path
// aliases a recycled lane buffer.
func (s *pipelinedSession) forEachWalk(ctx context.Context, batch Batch,
	emit func(worker, index int, q walk.Query, path []graph.VertexID, steps int64) error) error {
	workers := len(s.pipes)
	if workers == 0 {
		return fmt.Errorf("exec: session is closed")
	}
	hb := batch.Heartbeat
	return runChunked(ctx, len(batch.Queries), workers, func(w, lo, hi int, stopped func() bool) error {
		if err := fault.CheckTag(fault.BatchExec, "cpu-pipelined"); err != nil {
			return err
		}
		// Cooperative cancellation inside the cohort loop: the pipeline
		// polls the stop hook once per cohort pass (at most one hop per
		// lane between polls), so an expired deadline sheds remaining
		// steps mid-walk instead of finishing the chunk. The watchdog
		// heartbeat rides the same poll.
		hook := stopped
		if hb != nil {
			hook = func() bool {
				hb.Add(1)
				return stopped()
			}
		}
		s.pipes[w].SetStop(hook)
		defer s.pipes[w].SetStop(nil)
		_, err := s.pipes[w].Run(batch.Queries[lo:hi],
			func(i int, q walk.Query, path []graph.VertexID, steps int64) error {
				return emit(w, lo+i, q, path, steps)
			})
		if err == walk.ErrStopped {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return errStopped
		}
		return err
	})
}

func (s *pipelinedSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	col := newCollector(len(batch.Queries), len(s.pipes), s.maxPath, s.discard)
	err := s.forEachWalk(ctx, batch, func(w, i int, _ walk.Query, path []graph.VertexID, st int64) error {
		col.add(w, i, path, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := col.result()
	res.Memory = s.tier.report()
	return res, nil
}

func (s *pipelinedSession) Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var outMu sync.Mutex // fn contract: never called concurrently
	return s.forEachWalk(ctx, batch, func(_, _ int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		return fn(WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
}

func (s *pipelinedSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pipes = nil
	if s.sampler != nil {
		s.sampler.Release()
		s.sampler = nil
	}
	s.tier.release() // idempotent with the sampler release above
	s.tier = nil
	return nil
}
