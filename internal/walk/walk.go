// Package walk is the software reference GRW engine: a straightforward,
// correct implementation of Algorithm II.1 for every GRW variant the paper
// evaluates (URW, PPR, DeepWalk, Node2Vec, MetaPath).
//
// It serves three roles:
//   - the golden model against which the cycle-level accelerator's walk
//     statistics are validated,
//   - the workload/query substrate shared by the accelerator and all
//     baseline models, and
//   - the stepping kernels of the CPU engines: Walker (one walk at a
//     time, zero allocations per step) and Pipeline (a cohort of walks
//     advanced stage by stage), which internal/exec runs on worker
//     pools.
package walk

import (
	"errors"
	"fmt"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// ErrStopped is returned by Pipeline.Run when a stop hook installed with
// SetStop fires mid-batch: in-flight lanes are abandoned and the batch's
// remaining steps are shed. Engines map it to their own cancellation
// cause (typically the context error).
var ErrStopped = errors.New("walk: stopped")

// Algorithm enumerates the GRW variants of the paper's evaluation (§VIII-A).
type Algorithm int

const (
	// URW is the unbiased uniform random walk.
	URW Algorithm = iota
	// PPR is the personalized-PageRank walk: uniform steps with teleport
	// termination probability Alpha per hop.
	PPR
	// DeepWalk uses weight-proportional (alias-sampled) neighbor selection.
	DeepWalk
	// Node2Vec uses second-order biased selection with parameters P and Q;
	// rejection sampling on unweighted graphs, reservoir on weighted.
	Node2Vec
	// MetaPath constrains each hop to a vertex-type schema on labeled
	// graphs, terminating early when no neighbor matches.
	MetaPath
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case URW:
		return "URW"
	case PPR:
		return "PPR"
	case DeepWalk:
		return "DeepWalk"
	case Node2Vec:
		return "Node2Vec"
	case MetaPath:
		return "MetaPath"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all supported variants.
var Algorithms = []Algorithm{URW, PPR, DeepWalk, Node2Vec, MetaPath}

// Lane is a serving priority class. It is pure scheduling metadata: the
// Service drains interactive lanes ahead of bulk under weighted-round-
// robin, but a walk's trajectory never depends on its lane.
type Lane uint8

const (
	// LaneInteractive is the latency-sensitive lane (default): user-facing
	// queries that want the tightest tail latency.
	LaneInteractive Lane = iota
	// LaneBulk is the throughput lane: corpus jobs that tolerate queueing
	// behind interactive traffic.
	LaneBulk
)

// String names the lane for metrics keys.
func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBulk:
		return "bulk"
	default:
		return fmt.Sprintf("Lane(%d)", int(l))
	}
}

// Config selects the GRW variant and its parameters.
type Config struct {
	Algorithm Algorithm
	// WalkLength is the maximum number of hops per query (paper: 80).
	WalkLength int
	// Alpha is PPR's per-hop teleport (termination) probability.
	Alpha float64
	// P, Q are Node2Vec's return and in-out bias factors (paper: 2, 0.5).
	P, Q float64
	// Schema is MetaPath's cyclic vertex-type sequence.
	Schema []uint8
	// Seed drives all sampling deterministically.
	Seed uint64
	// Lane is the serving priority class (interactive vs. bulk). Serving
	// metadata only: it steers admission and drain order in the Service
	// and never affects a trajectory.
	Lane Lane
	// Tenant identifies the submitting tenant for quota accounting and
	// fairness. Serving metadata only; empty means the default tenant.
	Tenant string
}

// DefaultConfig returns the paper's standard configuration for alg.
func DefaultConfig(alg Algorithm) Config {
	cfg := Config{Algorithm: alg, WalkLength: 80, Seed: 1}
	switch alg {
	case PPR:
		cfg.Alpha = 0.2
	case Node2Vec:
		cfg.P, cfg.Q = 2, 0.5
	case MetaPath:
		cfg.Schema = []uint8{0, 1, 2}
	}
	return cfg
}

// Validate checks parameter sanity against the target graph.
func (c Config) Validate(g *graph.CSR) error {
	if c.WalkLength < 1 {
		return fmt.Errorf("walk: walk length %d, want >= 1", c.WalkLength)
	}
	switch c.Algorithm {
	case URW:
	case PPR:
		// The negated predicate also rejects NaN, which would otherwise
		// slip through both comparisons.
		if !(c.Alpha >= 0 && c.Alpha < 1) {
			return fmt.Errorf("walk: PPR alpha %v, want [0,1)", c.Alpha)
		}
	case DeepWalk:
		if !g.Weighted() {
			return fmt.Errorf("walk: DeepWalk requires a weighted graph (alias sampling)")
		}
	case Node2Vec:
		// NaN must fail here: p and q key the sampler registry, and a NaN
		// map key is unfindable and undeletable — every open would leak a
		// registry entry. The negated predicate rejects it.
		if !(c.P > 0) || !(c.Q > 0) {
			return fmt.Errorf("walk: Node2Vec p=%v q=%v, want > 0", c.P, c.Q)
		}
	case MetaPath:
		if g.Labels == nil {
			return fmt.Errorf("walk: MetaPath requires a labeled graph")
		}
		if len(c.Schema) == 0 {
			return fmt.Errorf("walk: MetaPath requires a schema")
		}
	default:
		return fmt.Errorf("walk: unknown algorithm %d", int(c.Algorithm))
	}
	if c.Lane > LaneBulk {
		return fmt.Errorf("walk: unknown lane %d", int(c.Lane))
	}
	return nil
}

// SamplerSpec maps a validated walk configuration to the parameters that
// actually determine its Table-I sampler — the registry key. Walk length,
// α, the seed, and the serving metadata (lane, tenant) never reach a
// sampler, so configurations differing only in those map to the same spec
// (and share one registry sampler).
func SamplerSpec(g *graph.CSR, cfg Config) (sampling.Spec, error) {
	if err := cfg.Validate(g); err != nil {
		return sampling.Spec{}, err
	}
	switch cfg.Algorithm {
	case URW, PPR:
		return sampling.Spec{Kind: sampling.KindUniform}, nil
	case DeepWalk:
		return sampling.Spec{Kind: sampling.KindAlias, Weighted: true}, nil
	case Node2Vec:
		if g.Weighted() {
			return sampling.Spec{Kind: sampling.KindReservoir, Weighted: true, P: cfg.P, Q: cfg.Q}, nil
		}
		return sampling.Spec{Kind: sampling.KindRejection, P: cfg.P, Q: cfg.Q}, nil
	case MetaPath:
		return sampling.Spec{Kind: sampling.KindMetaPath, Weighted: g.Weighted(), Schema: string(cfg.Schema)}, nil
	}
	return sampling.Spec{}, fmt.Errorf("walk: unknown algorithm %d", int(cfg.Algorithm))
}

// BuildSampler constructs a private Table-I sampler for the configured
// algorithm. Long-lived sessions should prefer AcquireSampler, which
// shares the (potentially O(E)) sampler state through the registry.
func BuildSampler(g *graph.CSR, cfg Config) (sampling.Sampler, error) {
	if err := fault.Check(fault.SamplerBuild); err != nil {
		return nil, err
	}
	spec, err := SamplerSpec(g, cfg)
	if err != nil {
		return nil, err
	}
	return spec.Build(g)
}

// AcquireSampler borrows the configured algorithm's sampler from the
// process-wide sampler registry, building it on first use and sharing it
// with every other session whose configuration maps to the same spec.
// Release the ref when the borrowing session closes.
func AcquireSampler(g *graph.CSR, cfg Config) (*sampling.SamplerRef, error) {
	spec, err := SamplerSpec(g, cfg)
	if err != nil {
		return nil, err
	}
	return sampling.DefaultRegistry().Acquire(g, spec)
}

// SamplerSpecTiered is SamplerSpec under a sampler-side hot-tier byte
// budget: algorithms backed by a prebuilt O(E) store (DeepWalk's alias
// rows) get the tiered store with that budget keyed into their spec;
// the parametric samplers are returned unchanged — their spec must not
// carry the budget, or sessions that could share them would not.
func SamplerSpecTiered(g *graph.CSR, cfg Config, budget int64) (sampling.Spec, error) {
	spec, err := SamplerSpec(g, cfg)
	if err != nil {
		return spec, err
	}
	if spec.Kind == sampling.KindAlias && budget != 0 {
		spec.TierBudget = budget
	}
	return spec, nil
}

// AcquireSamplerTiered is AcquireSampler under a sampler-side hot-tier
// budget (see SamplerSpecTiered). A zero budget is exactly
// AcquireSampler.
func AcquireSamplerTiered(g *graph.CSR, cfg Config, budget int64) (*sampling.SamplerRef, error) {
	spec, err := SamplerSpecTiered(g, cfg, budget)
	if err != nil {
		return nil, err
	}
	return sampling.DefaultRegistry().Acquire(g, spec)
}

// AcquireSamplerSnap is AcquireSampler for an epoch snapshot of a
// versioned graph: parametric samplers resolve to the base graph's
// shared entry, while alias sampling gets a per-epoch sampler derived
// incrementally from the base arenas (only the snapshot's dirty rows are
// rebuilt — see sampling.Registry.AcquireSnapshot). Release the ref when
// the borrowing session closes.
func AcquireSamplerSnap(snap *graph.Snapshot, cfg Config) (*sampling.SamplerRef, error) {
	spec, err := SamplerSpec(snap.Graph(), cfg)
	if err != nil {
		return nil, err
	}
	return sampling.DefaultRegistry().AcquireSnapshot(snap, spec)
}

// TierAccess reports which row components cfg's sampler reads through a
// tiered view: needRow false means the sampler consumes only a degree
// and one drawn slot per hop (uniform draws by index, alias draws from
// its own store), which lets engines take the slot-decode fast path;
// needW false means weight rows are never read and their decode can be
// skipped. Pass the result to graph.TierView.SetAccess.
func TierAccess(g *graph.CSR, cfg Config) (needRow, needW bool, err error) {
	spec, err := SamplerSpec(g, cfg)
	if err != nil {
		return true, true, err
	}
	switch spec.Kind {
	case sampling.KindUniform, sampling.KindAlias:
		return false, false, nil
	}
	return true, spec.Weighted, nil
}

// Query is one random-walk request.
type Query struct {
	ID    uint32
	Start graph.VertexID
}

// RandomQueries draws n start vertices uniformly from vertices with
// outgoing edges (for MetaPath, from vertices labeled Schema[0]).
func RandomQueries(g *graph.CSR, cfg Config, n int, seed uint64) ([]Query, error) {
	if n < 1 {
		return nil, fmt.Errorf("walk: query count %d, want >= 1", n)
	}
	var pool []graph.VertexID
	for v := 0; v < g.NumVertices; v++ {
		id := graph.VertexID(v)
		if g.Degree(id) == 0 {
			continue
		}
		if cfg.Algorithm == MetaPath && g.Label(id) != cfg.Schema[0] {
			continue
		}
		pool = append(pool, id)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("walk: no eligible start vertices")
	}
	r := rng.New(seed)
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{ID: uint32(i), Start: pool[r.Intn(len(pool))]}
	}
	return qs, nil
}

// Result aggregates the outcome of a query batch.
type Result struct {
	// Paths[i] is query i's visited-vertex sequence, starting with the
	// start vertex.
	Paths [][]graph.VertexID
	// Steps is the total number of hops taken across all queries — the
	// numerator of the paper's MStep/s metric.
	Steps int64
}

// Run executes all queries sequentially and deterministically.
func Run(g *graph.CSR, queries []Query, cfg Config) (*Result, error) {
	s, err := BuildSampler(g, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Paths: make([][]graph.VertexID, len(queries))}
	src := rng.NewSource(cfg.Seed)
	for i, q := range queries {
		r := src.Stream(uint64(q.ID))
		path, steps := walkOne(g, s, cfg, q, r)
		res.Paths[i] = path
		res.Steps += steps
	}
	return res, nil
}

// State is the resumable per-walk state: everything a single query's walk
// needs besides the graph, sampler, configuration, and RNG stream. Engines
// that interleave or migrate in-flight walks (the sharded engine) carry a
// State per walker and advance it hop by hop with Advance; the batch
// engines here drive the same primitive in a tight loop, so every engine
// takes byte-identical trajectories for the same RNG stream.
type State struct {
	// Cur is the vertex the walk currently stands on (Path's last entry).
	Cur graph.VertexID
	// Prev is the previously visited vertex; meaningful only when HasPrev
	// (second-order samplers condition on it).
	Prev    graph.VertexID
	HasPrev bool
	// Step is the number of hops taken so far (the next hop's index) —
	// also the walk's step tally for batch aggregation.
	Step int
	// Path is the visited-vertex sequence including the start vertex. Start
	// reuses its backing array, so a State recycled across queries with
	// capacity WalkLength+1 walks allocation-free.
	Path []graph.VertexID
}

// Start resets the state to the beginning of q's walk, reusing Path's
// backing array.
func (st *State) Start(q Query) {
	st.Cur = q.Start
	st.Prev = 0
	st.HasPrev = false
	st.Step = 0
	st.Path = append(st.Path[:0], q.Start)
}

// Advance takes one hop of the walk, drawing from r exactly as the batch
// engines do. It returns false when the walk has terminated — walk length
// reached, zero out-degree (Fig. 1b), no selectable neighbor (MetaPath
// schema miss), or PPR teleport — after which the state must not be
// advanced again.
func Advance(g *graph.CSR, s sampling.Sampler, cfg Config, st *State, r *rng.Stream) bool {
	if st.Step >= cfg.WalkLength {
		return false
	}
	row := g.Neighbors(st.Cur)
	if len(row) == 0 {
		return false // zero outgoing edges: immediate termination (Fig. 1b)
	}
	res := s.Sample(g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: int32(len(row)), Step: st.Step}, r)
	if res.Index < 0 {
		return false // no selectable neighbor (MetaPath schema miss)
	}
	next := row[res.Index]
	st.Prev, st.HasPrev = st.Cur, true
	st.Cur = next
	st.Path = append(st.Path, next)
	st.Step++
	if cfg.Algorithm == PPR && r.Float64() < cfg.Alpha {
		return false // teleport: the walk restarts, ending this query
	}
	return st.Step < cfg.WalkLength
}

// AdvanceView is Advance over a tiered graph store and/or an epoch
// snapshot: the current row is read through mem.Snap's overlay when the
// vertex is dirty for the serving epoch, through tv (hot arena or cached
// cold-row decode) otherwise, and staged into mem, the caller-owned
// sampling.RowView the sampler reads instead of the CSR. One mem lives
// per worker and is reused across hops, so the view costs no
// allocations. With tv == nil and no snapshot it is exactly Advance —
// flat engines keep their unchanged zero-overhead path.
func AdvanceView(g *graph.CSR, tv *graph.TierView, mem *sampling.RowView, s sampling.Sampler, cfg Config, st *State, r *rng.Stream) bool {
	var snap *graph.Snapshot
	if mem != nil {
		snap = mem.Snap
	}
	if tv == nil && snap == nil {
		return Advance(g, s, cfg, st, r)
	}
	if st.Step >= cfg.WalkLength {
		return false
	}
	var next graph.VertexID
	if snap != nil && snap.Dirty(st.Cur) {
		// Overlay path: the serving epoch's merged row replaces the base
		// row entirely (a bit set by a later epoch falls back to the base
		// row inside MergedRow, keeping this branch trajectory-neutral).
		row, wts := snap.MergedRow(st.Cur)
		if len(row) == 0 {
			return false // zero outgoing edges: immediate termination (Fig. 1b)
		}
		mem.Row, mem.Wts = row, wts
		if tv != nil {
			mem.Tier = tv
		}
		res := s.Sample(g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: int32(len(row)), Step: st.Step, Mem: mem}, r)
		if res.Index < 0 {
			return false // no selectable neighbor (MetaPath schema miss)
		}
		next = row[res.Index]
	} else if tv == nil {
		// Flat store under a snapshot, clean row: stage the base row so
		// second-order probes of dirty *other* rows route through mem.Snap.
		row := g.Neighbors(st.Cur)
		if len(row) == 0 {
			return false // zero outgoing edges: immediate termination (Fig. 1b)
		}
		mem.Row = row
		if g.Weighted() {
			mem.Wts = g.NeighborWeights(st.Cur)
		} else {
			mem.Wts = nil
		}
		res := s.Sample(g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: int32(len(row)), Step: st.Step, Mem: mem}, r)
		if res.Index < 0 {
			return false // no selectable neighbor (MetaPath schema miss)
		}
		next = row[res.Index]
	} else if !tv.NeedRow() {
		// Slot fast path (uniform and alias kinds, see TierAccess): the
		// sampler consumes only the degree and the walk only the drawn
		// neighbor, so cold rows decode one block-bounded slot instead of
		// materializing.
		t := tv.Tiered()
		off, deg, hot := t.Locate(st.Cur)
		if deg == 0 {
			return false // zero outgoing edges: immediate termination (Fig. 1b)
		}
		res := s.Sample(g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: deg, Step: st.Step}, r)
		if res.Index < 0 {
			return false
		}
		if hot {
			next = t.HotArena()[off+int64(res.Index)]
		} else {
			next = t.ColdEntryAt(st.Cur, off, int32(res.Index))
		}
	} else {
		row, wts := tv.RowAndWeights(st.Cur)
		if len(row) == 0 {
			return false // zero outgoing edges: immediate termination (Fig. 1b)
		}
		mem.Row, mem.Wts, mem.Tier = row, wts, tv
		res := s.Sample(g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: int32(len(row)), Step: st.Step, Mem: mem}, r)
		if res.Index < 0 {
			return false // no selectable neighbor (MetaPath schema miss)
		}
		next = row[res.Index]
	}
	st.Prev, st.HasPrev = st.Cur, true
	st.Cur = next
	st.Path = append(st.Path, next)
	st.Step++
	if cfg.Algorithm == PPR && r.Float64() < cfg.Alpha {
		return false // teleport: the walk restarts, ending this query
	}
	return st.Step < cfg.WalkLength
}

// walkOne runs a single query, returning the visited path (including the
// start vertex) and the number of hops taken.
func walkOne(g *graph.CSR, s sampling.Sampler, cfg Config, q Query, r *rng.Stream) ([]graph.VertexID, int64) {
	return walkInto(g, s, cfg, q, r, make([]graph.VertexID, 0, cfg.WalkLength+1))
}

// walkInto runs a single query, appending the visited path (including the
// start vertex) to path[:0] and returning it with the number of hops taken.
// Passing a buffer with capacity WalkLength+1 makes the walk allocation-free.
func walkInto(g *graph.CSR, s sampling.Sampler, cfg Config, q Query, r *rng.Stream, path []graph.VertexID) ([]graph.VertexID, int64) {
	st := State{Path: path}
	st.Start(q)
	for Advance(g, s, cfg, &st, r) {
	}
	return st.Path, int64(st.Step)
}

// Walker is a reusable single-walk executor: it owns a path buffer and an
// RNG stream that are recycled across queries, so the steady-state hot path
// performs zero allocations per step (and zero per query). One Walker serves
// one goroutine; create one per worker and share the sampler, which is safe
// for concurrent use.
//
// The slice returned by Walk aliases the internal buffer and is only valid
// until the next Walk call; callers that retain paths must copy them.
type Walker struct {
	g       *graph.CSR
	sampler sampling.Sampler
	cfg     Config
	src     *rng.Source
	r       rng.Stream
	buf     []graph.VertexID
	// tv, when set, routes row reads through a tiered store's per-worker
	// view; mem is the staged row view handed to the sampler.
	tv  *graph.TierView
	mem sampling.RowView
}

// NewWalker builds a walker for g under cfg, constructing its own sampler.
func NewWalker(g *graph.CSR, cfg Config) (*Walker, error) {
	s, err := BuildSampler(g, cfg)
	if err != nil {
		return nil, err
	}
	return NewWalkerWithSampler(g, cfg, s), nil
}

// NewWalkerWithSampler builds a walker sharing a previously built sampler
// (alias tables and schema state are read-only and safe to share across
// walkers).
func NewWalkerWithSampler(g *graph.CSR, cfg Config, s sampling.Sampler) *Walker {
	return &Walker{
		g:       g,
		sampler: s,
		cfg:     cfg,
		src:     rng.NewSource(cfg.Seed),
		buf:     make([]graph.VertexID, 0, cfg.WalkLength+1),
	}
}

// SetTierView makes the walker read neighbor rows through a tiered
// store's per-worker view (the view must be private to this walker;
// build one per worker with graph.NewTierView). Because a tiered store
// is content-identical to its CSR, trajectories are unaffected. Call
// before the first Walk; nil restores direct CSR reads.
func (w *Walker) SetTierView(tv *graph.TierView) {
	w.tv = tv
	if tv == nil {
		return
	}
	// Narrow the view to what this walker's sampler reads (cfg validated
	// at construction, so TierAccess cannot fail here).
	if needRow, needW, err := TierAccess(w.g, w.cfg); err == nil {
		tv.SetAccess(needRow, needW)
	}
}

// SetSnapshot makes the walker serve an epoch snapshot of a versioned
// graph: rows dirty for the snapshot's epoch are read from its merged
// overlay (and second-order probes route through it) instead of the base
// CSR the walker was built over, which must be snap.Graph(). Call before
// the first Walk; nil restores base-only reads.
func (w *Walker) SetSnapshot(snap *graph.Snapshot) { w.mem.Snap = snap }

// Walk executes one query. The per-query RNG stream is derived from the
// query ID exactly as Run does, so a Walker's output is byte-identical to
// Run's for the same seed regardless of execution order. The returned path
// is reused by the next call.
func (w *Walker) Walk(q Query) ([]graph.VertexID, int64) {
	w.src.StreamInto(uint64(q.ID), &w.r)
	st := State{Path: w.buf}
	st.Start(q)
	for AdvanceView(w.g, w.tv, &w.mem, w.sampler, w.cfg, &st, &w.r) {
	}
	w.buf = st.Path
	return st.Path, int64(st.Step)
}

// VisitCounts tallies how often each vertex appears across all paths —
// the statistic used to compare engines for distributional equivalence.
func VisitCounts(g *graph.CSR, res *Result) []int64 {
	counts := make([]int64, g.NumVertices)
	for _, p := range res.Paths {
		for _, v := range p {
			counts[v]++
		}
	}
	return counts
}

// ValidatePaths checks that every consecutive pair in every path is an edge
// of g and that no path exceeds the configured length.
func ValidatePaths(g *graph.CSR, res *Result, cfg Config) error {
	for i, p := range res.Paths {
		if len(p) == 0 {
			return fmt.Errorf("walk: query %d has empty path", i)
		}
		if len(p) > cfg.WalkLength+1 {
			return fmt.Errorf("walk: query %d path length %d exceeds %d", i, len(p), cfg.WalkLength+1)
		}
		for j := 1; j < len(p); j++ {
			if !g.HasEdge(p[j-1], p[j]) {
				return fmt.Errorf("walk: query %d hop %d: %d→%d is not an edge", i, j, p[j-1], p[j])
			}
		}
	}
	return nil
}
