package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

func init() {
	Register(cpuBackend{})
}

// cpuBackend is the ThunderRW-style multi-core software engine. It is the
// serving hot path: a fixed pool of walkers, each owning a reused path
// buffer and RNG stream, walks queries with zero allocations per step.
type cpuBackend struct{}

func (cpuBackend) Name() string { return "cpu" }

func (cpuBackend) Description() string {
	return "multi-core software engine (ThunderRW-style), allocation-free hot path"
}

// MergesBatches implements BatchMerger: per-query RNG streams make walks
// independent of batch composition.
func (cpuBackend) MergesBatches() bool { return true }

// SupportsMemoryTiering implements MemoryTierer: walkers advance through
// per-worker TierViews when a budget is set.
func (cpuBackend) SupportsMemoryTiering() bool { return true }

// Heartbeats implements Heartbeater: the chunk loop bumps
// Batch.Heartbeat at its every-64-walks checkpoint.
func (cpuBackend) Heartbeats() bool { return true }

// SupportsVersionedGraphs implements VersionedGrapher: walkers consult
// the epoch overlay through their staged row views.
func (cpuBackend) SupportsVersionedGraphs() bool { return true }

func (cpuBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("exec: cpu workers %d, want >= 0", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One sampler (flat alias store, schema state) borrowed read-only
	// from the process-wide registry — shared with every other session
	// whose configuration maps to the same sampler spec — and one walker
	// (reused buffer + RNG) per worker. A memory budget swaps both
	// borrows for their tiered counterparts; each walker then advances
	// through its own TierView (per-worker cold-row decode scratch).
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	s := &cpuSession{g: g, discard: cfg.DiscardPaths, maxPath: cfg.Walk.WalkLength + 1, sampler: ref, tier: ts}
	s.walkers = make([]*walk.Walker, workers)
	for i := range s.walkers {
		s.walkers[i] = walk.NewWalkerWithSampler(g, cfg.Walk, ref.Sampler())
		if ts != nil {
			s.walkers[i].SetTierView(graph.NewTierView(ts.gref.Store()))
		}
		if cfg.Snapshot != nil {
			s.walkers[i].SetSnapshot(cfg.Snapshot)
		}
	}
	return s, nil
}

type cpuSession struct {
	mu      sync.Mutex // serializes Run/Stream: walkers are single-batch state
	g       *graph.CSR
	discard bool
	maxPath int // longest possible path, WalkLength+1
	sampler *sampling.SamplerRef
	tier    *tierState
	walkers []*walk.Walker
}

// MemoryReport implements MemoryReporter (nil for untiered sessions).
func (s *cpuSession) MemoryReport() *MemoryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tier.report()
}

// SamplerBytes reports the resident size of the session's (shared)
// sampler state.
func (s *cpuSession) SamplerBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sampler == nil {
		return 0
	}
	return sampling.Footprint(s.sampler.Sampler())
}

// forEachWalk partitions the batch into contiguous chunks, one per worker,
// and invokes each worker's emit for every finished walk. The path passed
// to emit aliases the worker's reused buffer.
func (s *cpuSession) forEachWalk(ctx context.Context, batch Batch,
	emit func(worker, index int, q walk.Query, path []graph.VertexID, steps int64) error) error {
	workers := len(s.walkers)
	if workers == 0 {
		return fmt.Errorf("exec: session is closed")
	}
	hb := batch.Heartbeat
	return runChunked(ctx, len(batch.Queries), workers, func(w, lo, hi int, stopped func() bool) error {
		if err := fault.CheckTag(fault.BatchExec, "cpu"); err != nil {
			return err
		}
		walker := s.walkers[w]
		for i := lo; i < hi; i++ {
			if i&0x3f == 0 {
				if hb != nil {
					hb.Add(1)
				}
				if stopped() {
					if err := ctx.Err(); err != nil {
						return err
					}
					return errStopped
				}
			}
			q := batch.Queries[i]
			path, steps := walker.Walk(q)
			if err := emit(w, i, q, path, steps); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *cpuSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	col := newCollector(len(batch.Queries), len(s.walkers), s.maxPath, s.discard)
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

func (s *cpuSession) Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var outMu sync.Mutex // fn contract: never called concurrently
	return s.forEachWalk(ctx, batch, func(_, _ int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		return fn(WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
}

// streamIndexed is Stream plus the query's batch index — used by the
// analytic backends, whose pricing models need walk lengths in input order.
// Like Stream, fn is never called concurrently and the path is reused.
func (s *cpuSession) streamIndexed(ctx context.Context, batch Batch, fn func(index int, w WalkOutput) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var outMu sync.Mutex
	return s.forEachWalk(ctx, batch, func(_, i int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		return fn(i, WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
}

func (s *cpuSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walkers = nil
	if s.sampler != nil {
		s.sampler.Release()
		s.sampler = nil
	}
	s.tier.release() // idempotent with the sampler release above
	s.tier = nil
	return nil
}
