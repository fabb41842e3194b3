package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// MaxMeshWorkers bounds an engine's shard workers, K·max(1, Workers/K).
// The migration mesh holds one SPSC ring of RingCapacity records per
// (producer, consumer) pair — (W+1)·W rings for W workers — so its
// footprint is quadratic in W: one 16-query URW run over a 16 384-vertex
// graph allocates 11.7 MB at 8 workers, 79 MB at 32 and 918 MB at 128.
// NewEngine refuses a larger mesh.
const MaxMeshWorkers = 32

// EngineConfig sizes a sharded execution engine.
type EngineConfig struct {
	// Workers is the total worker budget across all shards; each shard's
	// pool gets max(1, Workers/K) goroutines, so the actual total is at
	// least K and at most MaxMeshWorkers. 0 means runtime.GOMAXPROCS(0),
	// capped at MaxMeshWorkers.
	Workers int
	// MaxInflight caps the walkers concurrently in flight across all
	// shards. It sizes the engine's walker-record pool: each record owns
	// a path buffer and RNG stream, recycled through the mesh's free
	// rings for the engine's lifetime. 0 means 4096.
	MaxInflight int
	// Cohort is each shard worker's lane count, 1 to walk.MaxCohort: the
	// worker batches up to Cohort resident walkers into a step-interleaved
	// walk.Cohort and runs the Row/Sample/Column/Move stages over all of
	// them per pass, so row fetches overlap sampling across walkers.
	// Walkers still migrate on boundary crossings with identical
	// trajectories.
	Cohort int
	// RingCapacity caps each SPSC migration ring (walker records per
	// producer→consumer worker pair). A full ring never blocks and never
	// drops: the holding worker advances the walker in place until the
	// consumer drains — lossless backpressure with identical trajectories
	// (a walk's path never depends on which worker advances it). 0 means
	// 512.
	RingCapacity int
	// Tiered optionally serves row reads through a tiered store (hot
	// arena + compressed cold CSR): each worker's cohort routes its Row
	// Access stage through it. It must be built over the engine's graph;
	// content identity makes it trajectory-neutral.
	Tiered *graph.Tiered
	// Snapshot optionally serves an epoch snapshot of a versioned graph:
	// rows dirty for the snapshot's epoch are read from its merged
	// overlay (graph.Rows), and second-order probes search those rows.
	// It must be a snapshot over the engine's graph.
	Snapshot *graph.Snapshot
	// Sampler, when non-nil, is a prebuilt sampler the engine borrows
	// instead of building its own — the execution layer passes its
	// registry-shared sampler here so per-shard execution reads the one
	// global flat store rather than duplicating O(E) sampler state. The
	// caller retains ownership (and any registry ref) and must keep it
	// alive for the engine's lifetime.
	Sampler sampling.Sampler
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Workers == 0 {
		c.Workers = min(runtime.GOMAXPROCS(0), MaxMeshWorkers)
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4096
	}
	if c.RingCapacity == 0 {
		c.RingCapacity = 512
	}
	return c
}

// RunStats reports one Run's migration traffic.
type RunStats struct {
	// Migrations counts cross-shard walker hand-offs (one walker crossing
	// one partition boundary and being delivered to the owning shard).
	Migrations int64
	// HandoffBatches counts doorbell flushes that published at least one
	// migrated walker; Migrations divided by HandoffBatches is the
	// realized migration batching factor.
	HandoffBatches int64
	// RingStalls counts hand-off attempts that found the destination ring
	// full; each stalled walker was advanced in place instead (lossless
	// backpressure), so stalls cost locality, never correctness.
	RingStalls int64
	// Epoch is the versioned-graph epoch the run served (EngineConfig.
	// Snapshot's epoch), 0 when the engine runs an unversioned graph.
	// OverlayRows is that snapshot's dirty-row count — the per-epoch
	// overlay footprint every walker of this run consulted.
	Epoch       uint64
	OverlayRows int
}

// EmitFunc receives one finished walk: the query's position in the input
// batch, the query itself, the visited path (including the start vertex),
// and the hop count. The path aliases a recycled walker buffer and is
// valid only during the call. Emits may arrive concurrently from
// different shard workers; callers needing serialized delivery must lock.
type EmitFunc func(index int, q walk.Query, path []graph.VertexID, steps int64) error

// Engine executes walk batches over a partitioned graph. Each shard owns
// a worker pool that advances only walkers currently standing on its
// vertices; when a hop crosses a partition boundary the walker — its
// resumable walk.State, path buffer, and RNG stream — is copied as one
// flat record into the fixed-capacity SPSC migration ring joining the
// two workers. Rings replace the earlier per-message mailbox channels:
// a hand-off is a single struct copy ordered by one atomic store, there
// is no per-walker boxing or per-batch slice allocation, and the whole
// fabric (rings, walker records, path buffers, worker scratch, cohort
// lanes) is pooled per engine, so steady-state migration performs zero
// heap allocations.
//
// Sampling always reads the global CSR, not the per-shard views:
// second-order samplers touch rows outside the current shard (Node2Vec's
// HasEdge check against the previous vertex, MetaPath's labels of
// cross-shard neighbors), so shard-local row storage cannot serve them.
// The engine's locality comes from grouping walkers by owning shard —
// each worker's accesses concentrate in its partition's slice of the
// global arrays; the Shard CSR views serve partition statistics and
// tooling.
//
// Results are byte-identical to the unsharded engines for the same seed:
// a walker's RNG stream is keyed by its query ID exactly as walk.Run's,
// and its state travels with it, so the trajectory never depends on shard
// count, worker interleaving, migration order, or backpressure (a walker
// advanced in place because a ring was full takes the same path it would
// have taken after migrating).
//
// An Engine holds only immutable workload state plus a mesh cache; Run
// calls are independent and safe to issue concurrently (each Run draws
// its own mesh).
type Engine struct {
	g       *graph.CSR
	part    *Partitioning
	wcfg    walk.Config
	sampler sampling.Sampler
	src     *rng.Source
	cfg     EngineConfig

	// meshes caches up to meshCacheCap idle migration fabrics. A plain
	// bounded stack rather than a sync.Pool: pools are GC-evictable (and
	// deliberately lossy under the race detector), which would charge a
	// full mesh rebuild — thousands of allocations — to whichever Run the
	// collector happened to precede. Steady-state reuse must be
	// deterministic for the 0-alloc migration guarantee to mean anything.
	meshMu sync.Mutex
	meshes []*mesh
}

// meshCacheCap bounds idle cached meshes (concurrent Runs beyond it
// build transient meshes that are dropped on completion).
const meshCacheCap = 4

// NewEngine binds a partitioned graph and a walk configuration,
// constructing the sampler once.
func NewEngine(g *graph.CSR, p *Partitioning, wcfg walk.Config, cfg EngineConfig) (*Engine, error) {
	if cfg.Cohort < 1 || cfg.Cohort > walk.MaxCohort {
		return nil, fmt.Errorf("shard: cohort %d, want >= 1 and <= %d", cfg.Cohort, walk.MaxCohort)
	}
	if p == nil || len(p.Shards) == 0 {
		return nil, fmt.Errorf("shard: engine needs a non-empty partitioning")
	}
	if cfg.RingCapacity < 0 {
		return nil, fmt.Errorf("shard: ring capacity %d, want >= 0", cfg.RingCapacity)
	}
	if err := checkMesh(p.K, cfg.Workers); err != nil {
		return nil, err
	}
	if cfg.Tiered != nil && cfg.Tiered.Graph() != g {
		return nil, fmt.Errorf("shard: tiered store built over a different graph")
	}
	if cfg.Snapshot != nil && cfg.Snapshot.Graph() != g {
		return nil, fmt.Errorf("shard: snapshot over a different graph")
	}
	sampler := cfg.Sampler
	if sampler == nil {
		var err error
		sampler, err = walk.BuildSampler(g, wcfg)
		if err != nil {
			return nil, err
		}
		// A dirty snapshot needs the alias store's dirty rows rebuilt —
		// the base arenas' locators still describe the pre-mutation rows.
		// Callers that pass a prebuilt Sampler (the exec layer) have
		// already derived it against the snapshot.
		if snap := cfg.Snapshot; snap != nil && snap.NumDirty() > 0 {
			if base, ok := sampler.(*sampling.AliasSampler); ok {
				if sampler, err = base.WithRebuiltRows(snap); err != nil {
					return nil, err
				}
			}
		}
	} else if err := wcfg.Validate(g); err != nil {
		return nil, err
	}
	if _, ok := sampling.AsStaged(sampler); !ok {
		return nil, fmt.Errorf("shard: sampler %T is not stage-resumable; cohort stepping unavailable", sampler)
	}
	return &Engine{
		g:       g,
		part:    p,
		wcfg:    wcfg,
		sampler: sampler,
		src:     rng.NewSource(wcfg.Seed),
		cfg:     cfg.withDefaults(),
	}, nil
}

// getMesh draws an idle mesh from the cache or builds one.
func (e *Engine) getMesh() *mesh {
	e.meshMu.Lock()
	if n := len(e.meshes); n > 0 {
		m := e.meshes[n-1]
		e.meshes[n-1] = nil
		e.meshes = e.meshes[:n-1]
		e.meshMu.Unlock()
		return m
	}
	e.meshMu.Unlock()
	return newMesh(e)
}

// putMesh returns a mesh to the cache (dropped beyond the cap).
func (e *Engine) putMesh(m *mesh) {
	e.meshMu.Lock()
	if len(e.meshes) < meshCacheCap {
		e.meshes = append(e.meshes, m)
	}
	e.meshMu.Unlock()
}

// Partitioning returns the engine's graph partitioning.
func (e *Engine) Partitioning() *Partitioning { return e.part }

// WorkersPerShard returns the per-shard pool size.
func (e *Engine) WorkersPerShard() int { return meshPerShard(e.cfg.Workers, e.part.K) }

// meshPerShard is the per-shard pool size for a worker budget over k
// shards.
func meshPerShard(workers, k int) int { return max(1, workers/k) }

// checkMesh refuses a shape whose migration mesh would exceed
// MaxMeshWorkers; workers is EngineConfig.Workers (0 for the default).
func checkMesh(k, workers int) error {
	if w := k * meshPerShard(EngineConfig{Workers: workers}.withDefaults().Workers, k); w > MaxMeshWorkers {
		return fmt.Errorf("shard: %d shards x %d workers per shard is a %d-worker migration mesh, above MaxMeshWorkers (%d)",
			k, w/k, w, MaxMeshWorkers)
	}
	return nil
}

// CheckShape makes the shape checks of Partition(g, k) and of NewEngine
// with the given Workers (0 for the default) without building anything,
// so a caller can refuse a shape before it allocates the state an engine
// would borrow.
func CheckShape(g *graph.CSR, k, workers int) error {
	if err := checkPartitionCount(g, k); err != nil {
		return err
	}
	return checkMesh(k, workers)
}

// run is the per-Run execution state; the heavy structures live in the
// pooled mesh.
type run struct {
	eng *Engine
	m   *mesh
	fn  EmitFunc

	remaining atomic.Int64
	doneCh    chan struct{} // closed when remaining hits 0
	abortCh   chan struct{} // closed on first error / cancellation
	abortOnce sync.Once
	err       error

	migrations atomic.Int64
	handoffs   atomic.Int64
	stalls     atomic.Int64
	wg         sync.WaitGroup
}

func (r *run) fail(err error) {
	r.abortOnce.Do(func() {
		r.err = err
		close(r.abortCh)
	})
}

// aborted reports whether the run has failed (cheap enough for per-walker
// polling).
func (r *run) aborted() bool {
	select {
	case <-r.abortCh:
		return true
	default:
		return false
	}
}

// finishRec emits a completed walk and returns its record — path buffer
// and all — to the injector through worker wi's free ring.
func (r *run) finishRec(wi int, w *walkerRec) {
	if err := r.fn(int(w.idx), w.q, w.st.Path, int64(w.st.Step)); err != nil {
		r.fail(err)
	}
	r.m.free[wi].push(w) // capacity MaxInflight bounds records in flight; never fails
	r.m.bellInjector()
	if r.remaining.Add(-1) == 0 {
		close(r.doneCh)
	}
}

// flushBells publishes this worker's pending hand-offs: one doorbell per
// consumer pushed to since the last flush. Counted as hand-off batches —
// the ring-mesh analogue of the old per-batch mailbox message.
func (r *run) flushBells(ws *workerState) {
	for c, d := range ws.dirty {
		if d {
			ws.dirty[c] = false
			r.handoffs.Add(1)
			r.m.bell(c)
		}
	}
}

// ejectLane hands a cohort lane's walker to the shard owning its new
// position (called by the cohort's eject callback after the lane's State
// was synced). A full ring parks the lane on the stalled list; the
// worker retries after the pass and re-admits locally if still full.
func (r *run) ejectLane(wi int, ws *workerState, tag int32) {
	// Hand-off injection point (armed-guarded: one atomic load when chaos
	// is off); surfaces as a panic the shard-worker containment converts
	// to an engine fault.
	if fault.Armed() {
		fault.MustCheck(fault.ShardHandoff)
	}
	m := r.m
	c := m.route(&ws.rr, int(ws.dst[tag]))
	if m.rings[wi][c].push(&ws.recs[tag]) {
		r.migrations.Add(1)
		ws.dirty[c] = true
		ws.freeLanes = append(ws.freeLanes, tag)
		return
	}
	r.stalls.Add(1)
	ws.stalled = append(ws.stalled, tag)
}

// workerCohort is one goroutine of a shard's pool: arrivals are popped
// straight into free lane records and admitted to the worker's
// walk.Cohort, which advances all resident walkers one
// Row/Sample/Column/Move pass at a time — one walker's CSR row fetch
// overlaps the sampling and move work of the rest. Ejection is decided
// per hop by the depart callback (resident hubs and this shard's own
// vertices stay); ejected walkers leave with their State synced, as one
// flat record copy into the destination ring. The inbound rings double
// as the admission backlog: the worker pops only when a lane is free, so
// excess arrivals wait in the ring, not in a growing slice.
func (r *run) workerCohort(wi int) {
	defer r.wg.Done()
	// Panic firewall: a crash while advancing a walker fails the run
	// (closing abortCh wakes every parked worker and the injector) and
	// quarantines the mesh, never the process.
	if err := fault.Contain("shard-worker", func() error {
		r.workerCohortLoop(wi)
		return nil
	}); err != nil {
		r.fail(err)
	}
}

func (r *run) workerCohortLoop(wi int) {
	m := r.m
	ws := m.workers[wi]
	cohort := ws.cohort
	for {
		worked := false
		for p := 0; p <= m.W && len(ws.freeLanes) > 0; p++ {
			ring := m.rings[p][wi]
			for len(ws.freeLanes) > 0 {
				lane := ws.freeLanes[len(ws.freeLanes)-1]
				if !ring.pop(&ws.recs[lane]) {
					break
				}
				ws.freeLanes = ws.freeLanes[:len(ws.freeLanes)-1]
				cohort.Admit(&ws.recs[lane].st, &ws.recs[lane].r, lane)
				worked = true
			}
		}
		if cohort.Len() > 0 {
			if r.aborted() {
				return
			}
			cohort.Step(ws.depart, ws.eject, ws.retire) // retire never errors here
			worked = true
			// Retry ejections that found a full ring during the pass; if
			// still full, re-admit the walker locally — it advances here
			// with an identical trajectory and re-attempts migration at
			// its next boundary crossing.
			for _, tag := range ws.stalled {
				c := m.route(&ws.rr, int(ws.dst[tag]))
				if m.rings[wi][c].push(&ws.recs[tag]) {
					r.migrations.Add(1)
					ws.dirty[c] = true
					ws.freeLanes = append(ws.freeLanes, tag)
				} else {
					m.bell(c)
					cohort.Admit(&ws.recs[tag].st, &ws.recs[tag].r, tag)
				}
			}
			ws.stalled = ws.stalled[:0]
		}
		r.flushBells(ws)
		if worked {
			continue
		}
		select {
		case <-m.bells[wi]:
		case <-r.doneCh:
			return
		case <-r.abortCh:
			return
		}
	}
}

// flushInjectorBells wakes every consumer the injector has pushed to
// since the last flush. Injection hand-offs are not migrations, so they
// are not counted in HandoffBatches.
func (r *run) flushInjectorBells() {
	m := r.m
	for c, d := range m.injDirty {
		if d {
			m.injDirty[c] = false
			m.bell(c)
		}
	}
}

// inject feeds the query batch into the mesh, drawing walker records
// first from the pool prefix and then from the free rings as walks
// finish. It parks on the injector doorbell when no record is free and
// yields when a destination ring is full (the consumer always drains).
func (r *run) inject(ctx context.Context, queries []walk.Query) {
	// The injector runs on Run's caller goroutine; containment here keeps
	// an injection-path crash inside the run like any worker crash.
	if err := fault.Contain("shard-inject", func() error {
		r.injectLoop(ctx, queries)
		return nil
	}); err != nil {
		r.fail(err)
	}
}

func (r *run) injectLoop(ctx context.Context, queries []walk.Query) {
	m, e := r.m, r.eng
	freeTop := len(m.pool)
	if freeTop > len(queries) {
		freeTop = len(queries)
	}
	scan := 0 // round-robin start for the free-ring sweep
	for next := 0; next < len(queries); {
		var w *walkerRec
		if freeTop > 0 {
			freeTop--
			w = &m.pool[freeTop]
		} else {
			for i := 0; i < m.W; i++ {
				c := (scan + i) % m.W
				if m.free[c].pop(&m.injRec) {
					w = &m.injRec
					scan = c + 1
					break
				}
			}
			if w == nil {
				r.flushInjectorBells()
				select {
				case <-m.injBell:
					continue
				case <-r.abortCh:
					return
				case <-ctx.Done():
					r.fail(ctx.Err())
					return
				}
			}
		}
		q := queries[next]
		w.q, w.idx = q, int32(next)
		e.src.StreamInto(uint64(q.ID), &w.r)
		w.st.Start(q)
		c := m.route(&m.injRR, e.part.Owner(q.Start))
		for !m.rings[m.W][c].push(w) {
			m.bell(c)
			if r.aborted() {
				return
			}
			runtime.Gosched()
		}
		m.injDirty[c] = true
		next++
		if next&63 == 0 {
			r.flushInjectorBells()
		}
	}
	r.flushInjectorBells()
}

// Run executes the query batch, delivering each finished walk through fn
// (possibly concurrently — see EmitFunc). It returns the run's migration
// statistics and the first error (a failed emit or context cancellation).
func (e *Engine) Run(ctx context.Context, queries []walk.Query, fn EmitFunc) (RunStats, error) {
	if len(queries) == 0 {
		return RunStats{}, nil
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	m := e.getMesh()
	r := &run{
		eng:     e,
		m:       m,
		fn:      fn,
		doneCh:  make(chan struct{}),
		abortCh: make(chan struct{}),
	}
	r.remaining.Store(int64(len(queries)))
	m.acquire(r)
	for wi := 0; wi < m.W; wi++ {
		r.wg.Add(1)
		go r.workerCohort(wi)
	}
	r.inject(ctx, queries)
	select {
	case <-r.doneCh:
	case <-r.abortCh:
	case <-ctx.Done():
		r.fail(ctx.Err())
	}
	r.wg.Wait()
	stats := RunStats{
		Migrations:     r.migrations.Load(),
		HandoffBatches: r.handoffs.Load(),
		RingStalls:     r.stalls.Load(),
	}
	if snap := e.cfg.Snapshot; snap != nil {
		stats.Epoch = snap.Epoch()
		stats.OverlayRows = snap.NumDirty()
	}
	err := r.err
	m.run = nil
	if errors.Is(err, fault.ErrEngineFault) {
		// A contained panic can leave the mesh's cohort lanes and ring
		// cursors mid-mutation; a concurrent Run drawing it from the cache
		// would inherit the corruption. Drop it — the next Run builds
		// fresh.
	} else {
		e.putMesh(m)
	}
	return stats, err
}
