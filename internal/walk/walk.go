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

// reads is what a sampler of kind k takes from the rows an engine
// resolves: how much of the current row (uniform and alias draws take
// one slot), and whether it also keeps the previous hop's row — Node2Vec's
// HasEdge(prev, ·) probes search N(prev).
func reads(k sampling.Kind) (acc graph.Access, prevRow bool) {
	switch k {
	case sampling.KindUniform, sampling.KindAlias:
		return graph.AccessSlot, false
	case sampling.KindRejection:
		return graph.AccessRow, true
	case sampling.KindReservoir:
		return graph.AccessWeights, true
	}
	return graph.AccessWeights, false
}

// ScratchBound is the most cold-row decode scratch one engine worker
// holds over t: its lanes (a Walker is one) × the buffers a sampler of
// kind k keeps per lane — the current row, its weights and the previous
// hop's row, as it reads them — × the largest cold row.
func ScratchBound(t *graph.Tiered, k sampling.Kind, lanes int) int64 {
	acc, prevRow := reads(k)
	var bufs int64
	if acc != graph.AccessSlot {
		bufs++
	}
	if acc == graph.AccessWeights && t.Graph().Weighted() {
		bufs++
	}
	if prevRow {
		bufs++
	}
	return int64(lanes) * bufs * int64(t.MaxColdDegree) * 4
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
	// rows, when set, resolves each hop's row through a tiered store or
	// an epoch snapshot (nil: Advance over the CSR), and arena is its
	// uncompressed arena. The walker holds the row it resolved, and for
	// Node2Vec the previous hop's row, in mem, decoding cold rows into
	// dec; acc and prevRow say what its sampler reads.
	rows    *graph.Rows
	arena   []graph.VertexID
	acc     graph.Access
	prevRow bool
	dec     graph.RowBuf
	mem     sampling.RowView
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
	w := &Walker{
		g:       g,
		sampler: s,
		cfg:     cfg,
		src:     rng.NewSource(cfg.Seed),
		buf:     make([]graph.VertexID, 0, cfg.WalkLength+1),
	}
	w.acc, w.prevRow = reads(s.Kind())
	return w
}

// SetRows makes the walker resolve its rows through rs — a tiered
// store's arenas and an epoch snapshot's overlay — rather than the CSR
// it was built over, which rs must serve. Every row form holds the same
// content, so trajectories are unaffected. Call before the first Walk;
// nil, or a flat rs, restores direct CSR reads.
func (w *Walker) SetRows(rs *graph.Rows) {
	w.rows = nil
	if rs != nil && !rs.Flat() {
		w.rows = rs
		w.arena, _ = rs.Arena()
	}
}

// Walk executes one query. The per-query RNG stream is derived from the
// query ID exactly as Run does, so a Walker's output is byte-identical to
// Run's for the same seed regardless of execution order. The returned path
// is reused by the next call.
func (w *Walker) Walk(q Query) ([]graph.VertexID, int64) {
	w.src.StreamInto(uint64(q.ID), &w.r)
	st := State{Path: w.buf}
	st.Start(q)
	if w.rows == nil {
		for Advance(w.g, w.sampler, w.cfg, &st, &w.r) {
		}
	} else {
		for w.advance(&st) {
		}
	}
	w.buf = st.Path
	return st.Path, int64(st.Step)
}

// advance is Advance over w.rows. Locate places the hop's row inline,
// and Resolve runs only for an overlay row or a cold row the sampler
// reads whole (a call per hop costs the depth-first walker as much as a
// cohort lane). The sampler reads the row from w.mem, and the drawn
// neighbor comes from the row, or from the one slot of a cold row left
// encoded.
func (w *Walker) advance(st *State) bool {
	if st.Step >= w.cfg.WalkLength {
		return false
	}
	off, deg, at := w.rows.Locate(st.Cur)
	var r graph.RowRef
	switch {
	case at == graph.InArena && w.acc != graph.AccessWeights:
		r = graph.RowRef{Row: w.arena[off : off+int64(deg)], Off: off, Deg: deg}
	case at == graph.InCold && w.acc == graph.AccessSlot:
		r = graph.RowRef{Off: off, Deg: deg}
	default:
		r = w.rows.Resolve(st.Cur, &w.dec, w.acc)
	}
	if r.Deg == 0 {
		return false // zero outgoing edges: immediate termination (Fig. 1b)
	}
	w.mem.Row, w.mem.Wts = r.Row, r.Wts
	res := w.sampler.Sample(w.g, sampling.Context{Cur: st.Cur, Prev: st.Prev, HasPrev: st.HasPrev, Deg: r.Deg, Step: st.Step, Mem: &w.mem}, &w.r)
	if res.Index < 0 {
		return false // no selectable neighbor (MetaPath schema miss)
	}
	var next graph.VertexID
	if r.Row != nil {
		next = r.Row[res.Index]
	} else {
		next = w.rows.Tiered().ColdEntryAt(st.Cur, r.Off, int32(res.Index))
	}
	if w.prevRow {
		w.mem.Prev = r.Row // N(prev) from the next hop on
		w.dec.Swap()
	}
	st.Prev, st.HasPrev = st.Cur, true
	st.Cur = next
	st.Path = append(st.Path, next)
	st.Step++
	if w.cfg.Algorithm == PPR && w.r.Float64() < w.cfg.Alpha {
		return false // teleport: the walk restarts, ending this query
	}
	return st.Step < w.cfg.WalkLength
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
