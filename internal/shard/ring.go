package shard

import (
	"sync/atomic"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/walk"
)

// walkerRec is one in-flight walk moved by value through the migration
// mesh: the query, its batch slot, the resumable walk.State (whose Path
// slice header carries the recycled path buffer along), and the
// query-keyed RNG stream. Records travel as flat struct copies — the
// "SoA lane copy" of a cohort lane — so handing a walker between shards
// never boxes it behind a pointer or touches the heap.
type walkerRec struct {
	q   walk.Query
	idx int32
	st  walk.State
	r   rng.Stream
}

// spscRing is a fixed-capacity single-producer/single-consumer ring of
// walker records — the migration channel between one producing worker
// and one consuming worker. head and tail are monotonically increasing
// positions (masked into the buffer), each written by exactly one side;
// the atomic store/load pair orders the record copy against the position
// publish, which is all the synchronization a SPSC hand-off needs. A
// full ring reports failure instead of blocking: migration backpressure
// is handled losslessly by the caller (see run.ejectLane).
type spscRing struct {
	buf  []walkerRec
	mask uint64
	_    [48]byte      // keep head off the buf header's cache line
	head atomic.Uint64 // next position to pop; written only by the consumer
	_    [56]byte      // head and tail on separate cache lines
	tail atomic.Uint64 // next position to push; written only by the producer
}

// newRing builds a ring holding at least capacity records (rounded up to
// a power of two, minimum 1).
func newRing(capacity int) *spscRing {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &spscRing{buf: make([]walkerRec, c), mask: uint64(c - 1)}
}

// push copies *w into the ring, reporting false when full. Producer-side
// only.
func (r *spscRing) push(w *walkerRec) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = *w
	r.tail.Store(t + 1)
	return true
}

// pop copies the oldest record into *w, reporting false when empty.
// Consumer-side only.
func (r *spscRing) pop(w *walkerRec) bool {
	h := r.head.Load()
	if h == r.tail.Load() {
		return false
	}
	*w = r.buf[h&r.mask]
	r.head.Store(h + 1)
	return true
}

// reset empties the ring. Only safe when no producer or consumer is
// active (between runs).
func (r *spscRing) reset() {
	r.head.Store(0)
	r.tail.Store(0)
}

// workerState is one worker's preallocated scratch, owned by the mesh so
// steady-state runs reuse it without allocating.
type workerState struct {
	shardID int
	// dirty[c] marks consumers this worker pushed to since its last
	// doorbell flush.
	dirty []bool

	// rr rotates this producer's hand-offs across the destination
	// shard's workers (see mesh.route).
	rr uint32

	// The worker's cohort and its lane-backed records, the free-lane
	// stack, per-lane destination shards computed by the depart callback,
	// and the per-pass stalled-ejection list.
	cohort    *walk.Cohort
	recs      []walkerRec
	freeLanes []int32
	dst       []int32
	stalled   []int32

	// Callbacks bound once at mesh construction; they reach the current
	// run through mesh.run.
	depart func(tag int32, cur graph.VertexID) bool
	eject  func(tag int32)
	retire func(tag int32) error
}

// mesh is the reusable migration fabric of one Engine: the SPSC ring
// matrix, the per-worker doorbells and scratch, the walker-record pool
// (each record owning a preallocated path buffer), and the free-record
// return rings. An Engine recycles meshes through its bounded,
// deterministic mesh cache (deliberately NOT a sync.Pool — see
// Engine.meshes), so a steady-state Run allocates nothing beyond its
// own bookkeeping struct — and migration itself is allocation-free by
// construction.
//
// Producers are the W shard workers plus the injector (producer index
// W); consumers are the W workers. rings[p][c] is the p→c migration
// ring; free[c] returns finished records from worker c to the injector.
type mesh struct {
	eng      *Engine
	W        int // total shard workers (K × perShard)
	perShard int

	rings [][]*spscRing // [W+1][W]
	free  []*spscRing   // [W], worker → injector
	bells []chan struct{}
	// injBell wakes the injector when a finished record is returned.
	injBell chan struct{}
	// injDirty marks consumers the injector pushed to since its flush.
	injDirty []bool
	// injRec is the injector's scratch slot for recycled records.
	injRec walkerRec
	// injRR rotates the injector's hand-offs across a destination
	// shard's workers (see route).
	injRR uint32

	pool    []walkerRec
	workers []*workerState

	// run is the engine run currently driving this mesh; set by acquire,
	// read by the worker callbacks.
	run *run
}

// route returns the consumer worker index a producer uses to reach
// shard dst: shard workers are numbered dst*perShard..dst*perShard+
// perShard-1, and each producer rotates its hand-offs across them
// through its own counter (*rr), so work spreads over every worker of
// the destination pool. Rotation keeps the SPSC invariant intact —
// whichever consumer is chosen, rings[p][c] still has exactly one
// producer and one consumer — it only varies which of the producer's
// own rings carries each walker. (A static residue-class route here
// would strand all traffic on one worker per shard whenever
// perShard > 1: the injector and every class-0 worker would only ever
// feed class-0 workers, leaving the rest parked for the whole run.)
func (m *mesh) route(rr *uint32, dst int) int {
	i := int(*rr) % m.perShard
	*rr++
	return dst*m.perShard + i
}

// newMesh builds the migration fabric for e.
func newMesh(e *Engine) *mesh {
	cfg := e.cfg
	perShard := e.WorkersPerShard()
	W := e.part.K * perShard
	ringCap := cfg.RingCapacity
	if ringCap > cfg.MaxInflight {
		ringCap = cfg.MaxInflight
	}
	m := &mesh{
		eng:      e,
		W:        W,
		perShard: perShard,
		rings:    make([][]*spscRing, W+1),
		free:     make([]*spscRing, W),
		bells:    make([]chan struct{}, W),
		injBell:  make(chan struct{}, 1),
		injDirty: make([]bool, W),
		pool:     make([]walkerRec, cfg.MaxInflight),
		workers:  make([]*workerState, W),
	}
	for p := range m.rings {
		// Worker→worker rings carry migrations and are bounded by
		// RingCapacity (backpressure); the injector's producer row is
		// sized to the inflight cap so admission is never throttled by
		// the migration-ring tuning.
		cap := ringCap
		if p == W {
			cap = cfg.MaxInflight
		}
		m.rings[p] = make([]*spscRing, W)
		for c := range m.rings[p] {
			m.rings[p][c] = newRing(cap)
		}
	}
	for i := range m.pool {
		m.pool[i].st.Path = make([]graph.VertexID, 0, e.wcfg.WalkLength+1)
	}
	for c := 0; c < W; c++ {
		m.free[c] = newRing(cfg.MaxInflight)
		m.bells[c] = make(chan struct{}, 1)
		// NewEngine validated the cohort size and sampler stagedness.
		cohort, err := walk.NewCohort(e.g, e.wcfg, e.sampler, cfg.Cohort)
		if err != nil {
			panic("shard: mesh cohort: " + err.Error())
		}
		if cfg.Tiered != nil {
			cohort.SetTiered(cfg.Tiered)
		}
		if cfg.Snapshot != nil {
			cohort.SetSnapshot(cfg.Snapshot)
		}
		ws := &workerState{
			shardID:   c / perShard,
			dirty:     make([]bool, W),
			cohort:    cohort,
			recs:      make([]walkerRec, cfg.Cohort),
			freeLanes: make([]int32, 0, cfg.Cohort),
			dst:       make([]int32, cfg.Cohort),
			stalled:   make([]int32, 0, cfg.Cohort),
		}
		m.bindCohortCallbacks(c, ws)
		m.workers[c] = ws
	}
	return m
}

// bindCohortCallbacks builds worker c's depart/eject/retire closures
// once; they dispatch to the run installed by acquire.
func (m *mesh) bindCohortCallbacks(c int, ws *workerState) {
	e := m.eng
	ws.depart = func(tag int32, cur graph.VertexID) bool {
		// Resident hub rows are cheap from every shard: advance in place.
		if e.part.Resident(cur) {
			return false
		}
		owner := e.part.Owner(cur)
		if owner == ws.shardID {
			return false
		}
		ws.dst[tag] = int32(owner)
		return true
	}
	ws.eject = func(tag int32) {
		m.run.ejectLane(c, ws, tag)
	}
	ws.retire = func(tag int32) error {
		m.run.finishRec(c, &ws.recs[tag])
		ws.freeLanes = append(ws.freeLanes, tag)
		return nil
	}
}

// acquire readies the mesh for a run: empty rings, drained doorbells,
// cleared cohorts and scratch. Cheap relative to a run; performs no
// allocation.
func (m *mesh) acquire(r *run) {
	m.run = r
	for _, row := range m.rings {
		for _, ring := range row {
			ring.reset()
		}
	}
	for _, ring := range m.free {
		ring.reset()
	}
	for _, bell := range m.bells {
		select {
		case <-bell:
		default:
		}
	}
	select {
	case <-m.injBell:
	default:
	}
	for i := range m.injDirty {
		m.injDirty[i] = false
	}
	m.injRR = 0
	for _, ws := range m.workers {
		ws.rr = 0
		for i := range ws.dirty {
			ws.dirty[i] = false
		}
		ws.cohort.Reset()
		ws.freeLanes = ws.freeLanes[:0]
		for lane := len(ws.recs) - 1; lane >= 0; lane-- {
			ws.freeLanes = append(ws.freeLanes, int32(lane))
		}
		ws.stalled = ws.stalled[:0]
	}
}

// bell wakes consumer c if it is parked (no-op when already signaled).
func (m *mesh) bell(c int) {
	select {
	case m.bells[c] <- struct{}{}:
	default:
	}
}

// bellInjector wakes the injector if it is parked on the free list.
func (m *mesh) bellInjector() {
	select {
	case m.injBell <- struct{}{}:
	default:
	}
}
