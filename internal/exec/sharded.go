package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

func init() {
	Register(shardedBackend{})
}

// shardedBackend is the partitioned software engine: the graph is split
// into edge-balanced shards (internal/shard), each shard owns a pool of
// cohort-stepping workers, and walkers migrate between shards through
// SPSC rings when a hop crosses a partition boundary. Per-walker RNG
// streams keep its output byte-identical to the "cpu" backend for the
// same seed at any shard count or cohort width. The planner never
// chooses it; it runs only when named.
type shardedBackend struct{}

func (shardedBackend) Name() string { return "cpu-sharded" }

func (shardedBackend) Description() string {
	return "partitioned software engine: per-shard cohort workers, ring walker migration (pin only)"
}

// MergesBatches implements BatchMerger: per-walker RNG streams make walks
// independent of batch composition.
func (shardedBackend) MergesBatches() bool { return true }

// SupportsMemoryTiering implements MemoryTierer: each shard worker's
// cohort serves rows through the tiered store when a budget is set.
func (shardedBackend) SupportsMemoryTiering() bool { return true }

// SupportsVersionedGraphs implements VersionedGrapher: each shard
// worker's cohort consults the epoch overlay before the base row.
func (shardedBackend) SupportsVersionedGraphs() bool { return true }

// Heartbeats implements Heartbeater: the session bumps Batch.Heartbeat
// on every finished walk.
func (shardedBackend) Heartbeats() bool { return true }

// RunsConcurrently implements ConcurrentRunner: the session's runs share
// a read lock, so overlapping batches run side by side.
func (shardedBackend) RunsConcurrently() bool { return true }

// defaultShards picks a shard count when the config leaves it zero: one
// shard per core up to 8 (beyond that, cut-edge traffic outgrows the
// locality win on the graphs this repository generates), clamped to the
// vertex count so tiny graphs still open.
func defaultShards(g *graph.CSR) int {
	k := runtime.GOMAXPROCS(0)
	if k > 8 {
		k = 8
	}
	if k > g.NumVertices {
		k = g.NumVertices
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (shardedBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("exec: cpu-sharded workers %d, want >= 0", cfg.Workers)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("exec: cpu-sharded shards %d, want >= 0", cfg.Shards)
	}
	if cfg.Cohort < 0 {
		return nil, fmt.Errorf("exec: cpu-sharded cohort %d, want >= 0", cfg.Cohort)
	}
	cohort := cfg.Cohort
	if cohort == 0 {
		cohort = DefaultCohort
	}
	k := cfg.Shards
	if k == 0 {
		k = defaultShards(g)
	}
	part, err := shard.Partition(g, k)
	if err != nil {
		return nil, err
	}
	// Per-shard execution borrows the registry's global sampler store;
	// shard views never duplicate O(E) sampler state. A memory budget
	// swaps the borrows for their tiered counterparts.
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	ecfg := shard.EngineConfig{Workers: cfg.Workers, Cohort: cohort, Sampler: ref.Sampler(), Snapshot: cfg.Snapshot}
	if ts != nil {
		ecfg.Tiered = ts.gref.Store()
	}
	eng, err := shard.NewEngine(g, part, cfg.Walk, ecfg)
	if err != nil {
		ts.release()
		ref.Release()
		return nil, err
	}
	return &shardedSession{eng: eng, discard: cfg.DiscardPaths, maxPath: cfg.Walk.WalkLength + 1, sampler: ref, tier: ts}, nil
}

// shardedSession adapts a shard.Engine to the Session interface. The
// engine keeps no cross-run state, so unlike cpuSession no run-serializing
// mutex is needed: runs share mu's read lock, and Close takes the write
// lock, so it waits for them before releasing the sampler they read.
type shardedSession struct {
	mu      sync.RWMutex
	eng     *shard.Engine
	discard bool
	maxPath int // longest possible path, WalkLength+1
	sampler *sampling.SamplerRef
	tier    *tierState
}

// MemoryReport implements MemoryReporter (nil for untiered sessions).
func (s *shardedSession) MemoryReport() *MemoryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tier.report()
}

// SamplerBytes reports the resident size of the session's (shared)
// sampler state.
func (s *shardedSession) SamplerBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sampler == nil {
		return 0
	}
	return sampling.Footprint(s.sampler.Sampler())
}

func (s *shardedSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	eng := s.eng
	if eng == nil {
		return nil, fmt.Errorf("exec: session is closed")
	}
	if err := fault.CheckTag(fault.BatchExec, "cpu-sharded"); err != nil {
		return nil, err
	}
	// Emits arrive concurrently from shard workers and do not say which:
	// they spread over one collector slot per worker by batch index, each
	// slot behind its own (all but uncontended) lock.
	slots := eng.Partitioning().K * eng.WorkersPerShard()
	col := newCollector(len(batch.Queries), slots, s.maxPath, s.discard)
	locks := make([]sync.Mutex, slots)
	hb := batch.Heartbeat
	_, err := eng.Run(ctx, batch.Queries, func(i int, _ walk.Query, path []graph.VertexID, st int64) error {
		slot := i % slots
		locks[slot].Lock()
		col.add(slot, i, path, st)
		locks[slot].Unlock()
		if hb != nil {
			hb.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := col.result()
	res.Memory = s.tier.report()
	return res, nil
}

func (s *shardedSession) Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	eng := s.eng
	if eng == nil {
		return fmt.Errorf("exec: session is closed")
	}
	if err := fault.CheckTag(fault.BatchExec, "cpu-sharded"); err != nil {
		return err
	}
	hb := batch.Heartbeat
	var outMu sync.Mutex // fn contract: never called concurrently
	_, err := eng.Run(ctx, batch.Queries, func(_ int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		if hb != nil {
			hb.Add(1)
		}
		return fn(WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
	return err
}

func (s *shardedSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng = nil
	if s.sampler != nil {
		s.sampler.Release()
		s.sampler = nil
	}
	s.tier.release() // idempotent with the sampler release above
	s.tier = nil
	return nil
}
