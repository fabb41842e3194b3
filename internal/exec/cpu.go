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
	"ridgewalker/internal/shard"
	"ridgewalker/internal/walk"
)

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

// cpuCaps are what every cpu-family engine guarantees: per-query RNG
// streams make walks independent of batch composition, budgets reach the
// tiered stores, and each stepping loop bumps Batch.Heartbeat at its
// cooperative-stop checkpoint.
var cpuCaps = Capabilities{MergesBatches: true, Heartbeats: true, MemoryTiering: true}

func init() {
	// The ThunderRW-style engine: a fixed pool of walkers, each owning a
	// reused path buffer and RNG stream, walks queries with zero
	// allocations per step. It checkpoints every 64 walks.
	Register(cpuBackend{
		name:  "cpu",
		desc:  "multi-core software engine (ThunderRW-style), allocation-free hot path",
		caps:  cpuCaps,
		lanes: 1,
		build: newWalkerLoop,
	})
	// The step-interleaved engine: the walk step is decomposed into Row
	// Access (CSR row bounds), Sample (a direct draw, or the
	// stage-resumable Propose/Accept decision), Column Access (the one
	// drawn column entry) and Move (state advance, path emit,
	// retire/respawn), each run as a tight batched loop over a cohort of
	// in-flight walkers (walk.Cohort) — the software shadow of the
	// paper's perfectly pipelined datapath, in the spirit of ThunderRW's
	// step interleaving. It checkpoints once per cohort pass.
	Register(cpuBackend{
		name:  "cpu-pipelined",
		desc:  "step-interleaved software engine: cohort-batched Row Access/Sample/Column Access/Move pipeline",
		caps:  cpuCaps,
		check: checkUnsharded,
		build: newPipelineLoop,
	})
	// The partitioned engine: the graph is split into edge-balanced
	// shards (internal/shard), each shard owns a pool of cohort-stepping
	// workers, and walkers migrate between shards through SPSC rings when
	// a hop crosses a partition boundary. It checkpoints on every
	// finished walk, and its runs overlap. The planner never chooses it;
	// it runs only when named.
	caps := cpuCaps
	caps.ConcurrentRuns = true
	Register(cpuBackend{
		name:  "cpu-sharded",
		desc:  "partitioned software engine: per-shard cohort workers, ring walker migration (pin only)",
		caps:  caps,
		check: checkShardShape,
		build: newShardLoop,
	})
}

// cpuBackend is one cpu-family engine. All three share one Session
// (cpuSession) and differ only in the stepping loop build returns, so
// their output is byte-identical to walk.Run for the same seed at any
// worker count, cohort width or shard count.
type cpuBackend struct {
	name, desc string
	caps       Capabilities
	// check, when non-nil, refuses a config the engine cannot run before
	// Open borrows any sampler or tiered state.
	check func(g *graph.CSR, cfg Config) error
	// lanes is how many walkers one worker holds rows for, which sizes
	// its decode scratch; 0 means the cohort width.
	lanes int
	// build makes the engine's loop over the session's borrowed sampler
	// and (under a memory budget) tiered graph store. workers and cohort
	// are resolved: cfg's value or the default.
	build func(g *graph.CSR, cfg Config, workers, cohort int, smp sampling.Sampler, tiered *graph.Tiered) (loop, error)
}

func (b cpuBackend) Name() string               { return b.name }
func (b cpuBackend) Description() string        { return b.desc }
func (b cpuBackend) Capabilities() Capabilities { return b.caps }

func (b cpuBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	for _, k := range []struct {
		knob string
		v    int
	}{{"workers", cfg.Workers}, {"cohort", cfg.Cohort}, {"shards", cfg.Shards}} {
		if k.v < 0 {
			return nil, fmt.Errorf("exec: %s %s %d, want >= 0", b.name, k.knob, k.v)
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cohort := cfg.Cohort
	if cohort == 0 {
		cohort = DefaultCohort
	}
	if b.check != nil {
		if err := b.check(g, cfg); err != nil {
			return nil, err
		}
	}
	// One sampler (flat alias store, schema state) borrowed read-only
	// from the process-wide registry — shared with every other session
	// whose configuration maps to the same sampler spec. A memory budget
	// swaps both borrows for their tiered counterparts; each worker then
	// decodes cold rows into its own scratch.
	ref, ts, err := acquireWalkState(g, cfg)
	if err != nil {
		return nil, err
	}
	var tiered *graph.Tiered
	if ts != nil {
		tiered = ts.gref.Store()
	}
	l, err := b.build(g, cfg, workers, cohort, ref.Sampler(), tiered)
	if err != nil {
		ts.release()
		ref.Release()
		return nil, err
	}
	if ts != nil {
		lanes := b.lanes
		if lanes == 0 {
			lanes = cohort
		}
		ts.rep.ScratchBoundPerWorker = walk.ScratchBound(tiered, ref.Sampler().Kind(), lanes)
	}
	return &cpuSession{loop: l, discard: cfg.DiscardPaths, maxPath: cfg.Walk.WalkLength + 1, sampler: ref, tier: ts}, nil
}

// emitFunc receives one finished walk: the collector slot it belongs to,
// its index in the batch, the query, and its path, which aliases an
// engine buffer recycled after emit returns.
type emitFunc func(slot, index int, q walk.Query, path []graph.VertexID, steps int64) error

// loop is a cpu-family engine's stepping loop.
type loop interface {
	// slots is how many collector slots forEach's emits spread over.
	slots() int
	// forEach runs the batch and emits every finished walk. Emits on one
	// slot never overlap. A loop whose state holds one batch at a time
	// serializes forEach calls itself.
	forEach(ctx context.Context, batch Batch, emit emitFunc) error
}

// cpuSession is the one Session of the cpu family: the shared borrows
// around an engine's loop. Every run takes mu's read lock, and Close
// takes the write lock, so it waits for runs before releasing the
// sampler they read.
type cpuSession struct {
	mu      sync.RWMutex
	loop    loop // nil once closed
	discard bool
	maxPath int // longest possible path, WalkLength+1
	sampler *sampling.SamplerRef
	tier    *tierState
}

// SamplerBytes implements SamplerSizer: the resident size of the
// session's (shared) sampler state.
func (s *cpuSession) SamplerBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sampler == nil {
		return 0
	}
	return sampling.Footprint(s.sampler.Sampler())
}

func (s *cpuSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.loop == nil {
		return nil, errClosed
	}
	col := newCollector(len(batch.Queries), s.loop.slots(), s.maxPath, s.discard)
	err := s.loop.forEach(ctx, batch, func(slot, i int, _ walk.Query, path []graph.VertexID, st int64) error {
		col.add(slot, i, path, st)
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
	return s.streamIndexed(ctx, batch, func(_ int, w WalkOutput) error { return fn(w) })
}

// streamIndexed is Stream plus the query's batch index — used by the
// analytic backends, whose pricing models need walk lengths in input order.
// Like Stream, fn is never called concurrently and the path is reused.
func (s *cpuSession) streamIndexed(ctx context.Context, batch Batch, fn func(index int, w WalkOutput) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.loop == nil {
		return errClosed
	}
	var outMu sync.Mutex // fn contract: never called concurrently
	return s.loop.forEach(ctx, batch, func(_, i int, q walk.Query, path []graph.VertexID, st int64) error {
		outMu.Lock()
		defer outMu.Unlock()
		return fn(i, WalkOutput{Query: q.ID, Path: path, Steps: st})
	})
}

func (s *cpuSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loop = nil
	if s.sampler != nil {
		s.sampler.Release()
		s.sampler = nil
	}
	s.tier.release() // idempotent with the sampler release above
	s.tier = nil
	return nil
}

// walkerLoop is cpu's loop: each worker walks its contiguous chunk of
// the batch query by query on a reused walk.Walker.
type walkerLoop struct {
	mu      sync.Mutex // walkers are single-batch state
	walkers []*walk.Walker
}

func newWalkerLoop(g *graph.CSR, cfg Config, workers, _ int, smp sampling.Sampler, tiered *graph.Tiered) (loop, error) {
	l := &walkerLoop{walkers: make([]*walk.Walker, workers)}
	rows := graph.NewRows(g, tiered, cfg.Snapshot)
	for i := range l.walkers {
		l.walkers[i] = walk.NewWalkerWithSampler(g, cfg.Walk, smp)
		l.walkers[i].SetRows(rows)
	}
	return l, nil
}

func (l *walkerLoop) slots() int { return len(l.walkers) }

func (l *walkerLoop) forEach(ctx context.Context, batch Batch, emit emitFunc) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	hb := batch.Heartbeat
	return runChunked(ctx, len(batch.Queries), len(l.walkers), func(w, lo, hi int, stopped func() bool) error {
		if err := fault.CheckTag(fault.BatchExec, "cpu"); err != nil {
			return err
		}
		walker := l.walkers[w]
		for i := lo; i < hi; i++ {
			if i&0x3f == 0 {
				if hb != nil {
					hb.Add(1)
				}
				if stopped() {
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

// pipelineLoop is cpu-pipelined's loop: each worker drives its
// contiguous chunk of the batch through a reusable walk.Pipeline. Within
// a chunk, delivery order follows lane retirement, not batch order.
type pipelineLoop struct {
	mu    sync.Mutex // pipelines are single-batch state
	pipes []*walk.Pipeline
}

// errShardsPin refuses a shard count on a backend that never shards: the
// partitioned engine is reached only by naming cpu-sharded.
func errShardsPin(backend string, shards int) error {
	return fmt.Errorf("exec: %s does not shard (Shards %d); open cpu-sharded to run the partitioned engine", backend, shards)
}

// checkUnsharded is cpu-pipelined's check: it refuses a shard count.
func checkUnsharded(_ *graph.CSR, cfg Config) error {
	if cfg.Shards != 0 {
		return errShardsPin("cpu-pipelined", cfg.Shards)
	}
	return nil
}

func newPipelineLoop(g *graph.CSR, cfg Config, workers, cohort int, smp sampling.Sampler, tiered *graph.Tiered) (loop, error) {
	l := &pipelineLoop{pipes: make([]*walk.Pipeline, workers)}
	rows := graph.NewRows(g, tiered, cfg.Snapshot)
	for i := range l.pipes {
		p, err := walk.NewPipelineWithSampler(g, cfg.Walk, smp, cohort)
		if err != nil {
			return nil, err
		}
		p.SetRows(rows)
		l.pipes[i] = p
	}
	return l, nil
}

func (l *pipelineLoop) slots() int { return len(l.pipes) }

func (l *pipelineLoop) forEach(ctx context.Context, batch Batch, emit emitFunc) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	hb := batch.Heartbeat
	return runChunked(ctx, len(batch.Queries), len(l.pipes), func(w, lo, hi int, stopped func() bool) error {
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
		p := l.pipes[w]
		p.SetStop(hook)
		defer p.SetStop(nil)
		_, err := p.Run(batch.Queries[lo:hi], func(i int, q walk.Query, path []graph.VertexID, steps int64) error {
			return emit(w, lo+i, q, path, steps)
		})
		if err == walk.ErrStopped {
			return errStopped
		}
		return err
	})
}

// shardLoop is cpu-sharded's loop. The shard engine keeps no cross-run
// state, so runs overlap. Emits arrive concurrently from shard workers
// and do not say which: they spread over one collector slot per worker
// by batch index, each slot behind its own (all but uncontended) lock.
type shardLoop struct{ eng *shard.Engine }

// shardCount is cfg's shard count. Zero picks one shard per core up to
// 8 (beyond that, cut-edge traffic outgrows the locality win on the
// graphs this repository generates), clamped to the vertex count so tiny
// graphs still open.
func shardCount(g *graph.CSR, cfg Config) int {
	if cfg.Shards != 0 {
		return cfg.Shards
	}
	return max(1, min(runtime.GOMAXPROCS(0), 8, g.NumVertices))
}

// checkShardShape is cpu-sharded's check: the partition count and the
// migration mesh size (shard.MaxMeshWorkers).
func checkShardShape(g *graph.CSR, cfg Config) error {
	return shard.CheckShape(g, shardCount(g, cfg), cfg.Workers)
}

func newShardLoop(g *graph.CSR, cfg Config, _, cohort int, smp sampling.Sampler, tiered *graph.Tiered) (loop, error) {
	part, err := shard.Partition(g, shardCount(g, cfg))
	if err != nil {
		return nil, err
	}
	// Per-shard execution borrows the registry's global sampler store;
	// shard views never duplicate O(E) sampler state. The engine resolves
	// a zero Workers itself, capped at shard.MaxMeshWorkers so wide hosts
	// still open.
	eng, err := shard.NewEngine(g, part, cfg.Walk, shard.EngineConfig{
		Workers: cfg.Workers, Cohort: cohort, Sampler: smp, Tiered: tiered, Snapshot: cfg.Snapshot,
	})
	if err != nil {
		return nil, err
	}
	return shardLoop{eng}, nil
}

func (l shardLoop) slots() int { return l.eng.Partitioning().K * l.eng.WorkersPerShard() }

func (l shardLoop) forEach(ctx context.Context, batch Batch, emit emitFunc) error {
	if err := fault.CheckTag(fault.BatchExec, "cpu-sharded"); err != nil {
		return err
	}
	slots := l.slots()
	locks := make([]sync.Mutex, slots)
	hb := batch.Heartbeat
	_, err := l.eng.Run(ctx, batch.Queries, func(i int, q walk.Query, path []graph.VertexID, st int64) error {
		slot := i % slots
		locks[slot].Lock()
		defer locks[slot].Unlock()
		if hb != nil {
			hb.Add(1)
		}
		return emit(slot, i, q, path, st)
	})
	return err
}
