package walk

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// Lane phases: where a walker stands in the step pipeline between passes.
const (
	// phaseRow: the next pass starts a new hop with the Row Access stage.
	phaseRow = iota
	// phaseParked: a rejection sampler turned the lane's candidate down.
	// The lane keeps its gathered row, skips Row Access and re-enters the
	// Sample stage on the next pass.
	phaseParked
)

// Per-pass lane fates, reset every pass.
const (
	fateNone = iota
	// fateMove: the Sample stage accepted a candidate this pass.
	fateMove
	// fateRetire: the walk terminated (length, sink, schema miss, teleport).
	fateRetire
	// fateDepart: the hop landed on a vertex the host rejected (sharded
	// engines: a vertex owned by another shard).
	fateDepart
)

// Cohort is the struct-of-arrays ring of in-flight walkers behind the
// step-interleaved execution pipeline. Each walk step is decomposed into
// the paper's three accesses plus the bookkeeping behind them — Row
// Access (fetch the row bounds), Sample (draw the neighbor slot), Column
// Access (fetch the one drawn column entry), Move (advance state, extend
// the path, decide termination) — and each Step call runs every stage as
// a tight batched loop over all lanes. The two memory accesses of a hop
// are therefore each a loop of independent misses across walkers,
// instead of every walker's fetches being dependent cache misses in a
// sequential Advance loop (ThunderRW's step interleaving, the software
// shadow of the paper's perfectly pipelined datapath).
//
// Hot per-walker fields live in parallel arrays; the lane only touches its
// backing State (path append) and RNG stream through pointers. All RNG
// draws come from the lane's own stream in exactly Advance's order, so
// trajectories are byte-identical to the sequential engines for the same
// seed no matter how lanes interleave.
//
// A Cohort performs no allocations after construction: lanes are
// preallocated at capacity, a lane's decode buffers grow once each, and
// path appends stay within the caller's preallocated buffers.
type Cohort struct {
	g       *graph.CSR
	sampler sampling.StagedSampler
	cfg     Config
	kind    sampling.Kind
	// scanRow marks samplers that read the whole neighbor row per
	// decision (reservoir, metapath): for those, Row Access touches the
	// row's ends and interior cache lines. Rejection reads single
	// candidates: its flat lanes take the two-load Row Access (the Sample
	// pass's column loads are independent misses already) and the others
	// get only the row ends.
	scanRow bool
	// aliasStore, set when the sampler is the flat alias store, lets Row
	// Access touch the lane's locator word and alias-row boundary slots
	// alongside the CSR row locator, so the arena lines the Sample
	// stage's draw will hit are already in flight — and lets the Sample
	// stage call the draw directly.
	aliasStore *sampling.AliasSampler
	// tieredAlias is aliasStore's counterpart for the tiered alias store
	// (kept as a second concrete field so the flat path's direct call
	// never becomes an interface dispatch).
	tieredAlias *sampling.TieredAlias
	// rej, set when the sampler is node2vec's rejection sampler, lets the
	// Sample stage run it as staged passes on flat lanes (sampleRejection).
	// plo/phi hold each lane's previous row — the row it sampled one hop
	// ago, which is N(prev) — so the Prev Access probe never reloads
	// RowPtr[prev]; it searches that row through fences, the sampler's
	// fence index over Col. probe is the pass's list of undecided lanes.
	rej      *sampling.Rejection
	fences   *graph.Fences
	plo, phi []int64
	probe    []int32

	n int // lanes in use; live lanes are always the prefix [0, n)

	// rows resolves every lane's row outside the two-load flat loop (see
	// SetRows); acc is how much of it the sampler reads. keepPrev marks
	// Node2Vec's samplers off the flat rejection pass: their lanes keep
	// the row they stood on one hop earlier, N(prev), in mem.Prev.
	rows     *graph.Rows
	acc      graph.Access
	keepPrev bool

	// Struct-of-arrays lane state. Flat lanes keep their row as scalar
	// bounds into Col rather than a slice header: the Row Access loop's
	// usefulness is how many independent row misses it keeps in flight,
	// and a leaner loop body keeps more iterations inside the
	// out-of-order window. Lanes off that loop record where their row
	// lives in at: the view's arena from lo, or encoded at byte offset lo
	// of the cold arena, or else in mem.Row. mem also holds the row and
	// its weights for the samplers that read them, and N(prev); cold rows
	// decode into the lane's own buf.
	cur, prev []graph.VertexID
	hasPrev   []bool
	step      []int32
	lo, hi    []int64          // row bounds in Col; Off and Off+Deg of a resolved row
	idx       []int32          // Sample's accepted slot within the row
	nxt       []graph.VertexID // Column Access's fetched neighbor
	at        []graph.Place    // where Row Access placed the lane's row
	mem       []sampling.RowView
	buf       []graph.RowBuf
	// cand is the resume state of a decision parked mid-rejection; it is
	// the zero Candidate whenever no decision is in progress.
	cand  []sampling.Candidate
	phase []uint8
	fate  []uint8
	tag   []int32
	st    []*State
	r     []*rng.Stream

	// touch sinks the Row Access stage's cache-warming loads so the compiler
	// cannot discard them.
	touch uint64
}

// MaxCohort bounds a cohort's lane count. A cohort allocates about 20
// lane arrays of its size up front, and past a few hundred lanes a wider
// one is no faster, so a larger caller-supplied width is rejected rather
// than allocated.
const MaxCohort = 1 << 16

// NewCohort builds a cohort of the given capacity, 1 to MaxCohort. The
// sampler must be stage-resumable (every sampler built by BuildSampler
// is).
func NewCohort(g *graph.CSR, cfg Config, s sampling.Sampler, size int) (*Cohort, error) {
	if size < 1 || size > MaxCohort {
		return nil, fmt.Errorf("walk: cohort size %d, want >= 1 and <= %d", size, MaxCohort)
	}
	ss, ok := sampling.AsStaged(s)
	if !ok {
		return nil, fmt.Errorf("walk: sampler %T is not stage-resumable", s)
	}
	kind := ss.Kind()
	aliasStore, _ := s.(*sampling.AliasSampler)
	tieredAlias, _ := s.(*sampling.TieredAlias)
	c := &Cohort{
		g:           g,
		sampler:     ss,
		kind:        kind,
		cfg:         cfg,
		scanRow:     kind == sampling.KindReservoir || kind == sampling.KindMetaPath,
		aliasStore:  aliasStore,
		tieredAlias: tieredAlias,
		cur:         make([]graph.VertexID, size),
		prev:        make([]graph.VertexID, size),
		hasPrev:     make([]bool, size),
		step:        make([]int32, size),
		lo:          make([]int64, size),
		hi:          make([]int64, size),
		idx:         make([]int32, size),
		nxt:         make([]graph.VertexID, size),
		cand:        make([]sampling.Candidate, size),
		phase:       make([]uint8, size),
		fate:        make([]uint8, size),
		tag:         make([]int32, size),
		st:          make([]*State, size),
		r:           make([]*rng.Stream, size),
	}
	if rej, ok := s.(*sampling.Rejection); ok {
		c.rej = rej
		// A sampler from Spec.Build carries the index over its graph; one
		// from NewRejection has none, so the cohort builds its own.
		if c.fences = rej.Fences(); c.fences == nil || c.fences.Graph() != g {
			c.fences = graph.NewFences(g)
		}
		c.plo = make([]int64, size)
		c.phi = make([]int64, size)
		c.probe = make([]int32, 0, size)
	}
	c.SetRows(nil)
	return c, nil
}

// flat reports whether lanes read rows straight from the CSR: no tiered
// store or epoch snapshot. Only flat lanes run sampleRejection.
func (c *Cohort) flat() bool { return c.rows.Flat() }

// lean reports whether Row Access runs the two-load flat loop: uniform
// and rejection lanes on a flat view. Its lanes keep no row state beyond
// the bounds.
func (c *Cohort) lean() bool {
	return c.flat() && (c.kind == sampling.KindUniform || c.rej != nil)
}

// SetRows makes the cohort resolve its lanes' rows through rs — a tiered
// store's arenas and an epoch snapshot's overlay, in rs's order — rather
// than the CSR it was built over, which rs must serve. Every row form
// holds the same content, so trajectories are unaffected. Call before the
// first Admit; nil restores direct CSR reads.
func (c *Cohort) SetRows(rs *graph.Rows) {
	if rs == nil {
		rs = graph.NewRows(c.g, nil, nil)
	}
	c.rows = rs
	var prevRow bool
	c.acc, prevRow = reads(c.kind)
	c.keepPrev = prevRow && !(c.rej != nil && rs.Flat())
	if !c.lean() && c.mem == nil {
		size := len(c.cur)
		c.at = make([]graph.Place, size)
		c.mem = make([]sampling.RowView, size)
		c.buf = make([]graph.RowBuf, size)
	}
}

// ScratchBytes reports the lanes' decode buffers in bytes — the
// "scratch" term of the tier accounting (0 for flat cohorts), at most
// ScratchBound for the cohort's width.
func (c *Cohort) ScratchBytes() int64 {
	var b int64
	for i := range c.buf {
		b += c.buf[i].Bytes()
	}
	return b
}

// Len returns the number of occupied lanes.
func (c *Cohort) Len() int { return c.n }

// Cap returns the cohort capacity.
func (c *Cohort) Cap() int { return len(c.cur) }

// Admit installs an in-flight walk into a free lane, loading the hot
// fields from st (which may be freshly started or mid-walk, e.g. a walker
// migrating in from another shard). tag is returned through the Step
// callbacks when the walk leaves the cohort. It reports false when the
// cohort is full.
func (c *Cohort) Admit(st *State, r *rng.Stream, tag int32) bool {
	if c.n == len(c.cur) {
		return false
	}
	i := c.n
	c.n++
	c.cur[i] = st.Cur
	c.prev[i] = st.Prev
	c.hasPrev[i] = st.HasPrev
	c.step[i] = int32(st.Step)
	// A walker arriving mid-walk (a shard migration, a resumed State) has
	// no previous row yet: resolve N(prev) once — into the spare buffer,
	// as Move leaves it — or, on a flat rejection lane, load its bounds.
	if st.HasPrev && c.keepPrev {
		c.mem[i].Prev = c.rows.Resolve(st.Prev, &c.buf[i], graph.AccessRow).Row
		c.buf[i].Swap()
	} else if st.HasPrev && c.plo != nil {
		c.plo[i], c.phi[i] = c.g.RowPtr[st.Prev], c.g.RowPtr[st.Prev+1]
	}
	c.cand[i] = sampling.Candidate{}
	c.phase[i] = phaseRow
	c.fate[i] = fateNone
	if st.Step >= c.cfg.WalkLength {
		// Already at its length (Advance's first check): the next pass
		// retires it before any draw. Move applies the same bound after
		// every hop, so the stages themselves never re-check it.
		c.fate[i] = fateRetire
	}
	c.tag[i] = tag
	c.st[i] = st
	c.r[i] = r
	return true
}

// syncState writes lane i's hot fields back into its State, making the
// State self-contained again (the Path is already current: Move appends
// through the pointer).
func (c *Cohort) syncState(i int) {
	st := c.st[i]
	st.Cur = c.cur[i]
	st.Prev = c.prev[i]
	st.HasPrev = c.hasPrev[i]
	st.Step = int(c.step[i])
}

// remove frees lane i by moving the last live lane into it.
func (c *Cohort) remove(i int) {
	c.n--
	j := c.n
	if i != j {
		c.cur[i] = c.cur[j]
		c.prev[i] = c.prev[j]
		c.hasPrev[i] = c.hasPrev[j]
		c.step[i] = c.step[j]
		c.lo[i] = c.lo[j]
		c.hi[i] = c.hi[j]
		c.cand[i] = c.cand[j]
		c.phase[i] = c.phase[j]
		c.fate[i] = c.fate[j]
		c.tag[i] = c.tag[j]
		c.st[i] = c.st[j]
		c.r[i] = c.r[j]
		if c.plo != nil {
			c.plo[i], c.phi[i] = c.plo[j], c.phi[j]
		}
		if c.mem != nil {
			c.at[i] = c.at[j]
			c.mem[i] = c.mem[j]
			// Swap (not copy) the decode buffers: lane j's rows alias its
			// buffers and follow it, and slot j keeps recyclable ones.
			c.buf[i], c.buf[j] = c.buf[j], c.buf[i]
		}
	}
	c.st[j] = nil
	c.r[j] = nil
	if c.mem != nil {
		// A free lane holds no rows: Admit finds mem zero, and snapshot
		// rows are not kept alive.
		c.mem[j] = sampling.RowView{}
	}
}

// Reset drops every lane without syncing or emitting, leaving the cohort
// empty. Engines that pool cohorts across runs call it to clear lanes
// abandoned by an aborted run (stale State/RNG pointers must not leak
// into the next run).
func (c *Cohort) Reset() {
	for c.n > 0 {
		c.remove(0)
	}
}

// Step runs one Row Access → Sample → Column Access → Move pass over
// every lane — the paper's §V-A pipeline, each memory access its own
// tight loop so a cohort's worth of independent misses is in flight at
// once.
//
// depart, when non-nil, is consulted after each completed hop with the
// lane's tag and the walker's new vertex; returning true ejects the lane
// (the walk continues elsewhere — sharded engines use it for the owner
// check, recording the computed owner per tag so ejection reuses it).
// eject is then called with the lane's tag after its State has been
// synced, so the caller can hand the self-contained walker off safely.
// retire is called (also post-sync) for each walk that terminated; a
// non-nil retire error is returned after the pass completes (remaining
// callbacks still run, so the cohort stays consistent).
//
// Walkers parked mid-rejection stay in the Sample stage across passes and
// skip Row Access — the stage-resumable re-entry that keeps Node2Vec's
// rejection loop from stalling the whole cohort.
func (c *Cohort) Step(
	depart func(tag int32, cur graph.VertexID) bool,
	eject func(tag int32),
	retire func(tag int32) error,
) error {
	c.rowAccess()
	c.sample()
	c.columnAccess()
	c.move(depart)
	return c.sweep(eject, retire)
}

// rowAccess fetches the neighbor row for every lane entering a new step.
// Sinks retire here, before any RNG draw, exactly as Advance orders it
// (the walk-length bound, Advance's other pre-draw check, is applied by
// Admit and after every hop by Move). There are two loops, chosen once
// per pass — the body must stay lean enough that many lanes' independent
// misses overlap inside the out-of-order window, which is the whole point
// of the stage. Flat lanes whose sampler reads single entries (uniform,
// rejection) load only the row bounds; every other lane resolves its row
// through c.rows.
func (c *Cohort) rowAccess() {
	g := c.g
	n := c.n
	phase, fate, cur := c.phase[:n], c.fate[:n], c.cur[:n]
	los, his := c.lo[:n], c.hi[:n]
	if c.lean() {
		// Uniform draws and flat rejection on an unversioned graph (URW,
		// PPR, unweighted Node2Vec): the two row-pointer loads and
		// nothing else. The Sample pass or Column Access fetches the
		// drawn entries, and a body without calls keeps every array base
		// in a register.
		rowPtr := g.RowPtr
		for i := 0; i < n; i++ {
			if phase[i] != phaseRow {
				continue
			}
			v := cur[i]
			hi := rowPtr[v+1]
			lo := rowPtr[v]
			if lo == hi {
				fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			los[i], his[i] = lo, hi
		}
		return
	}
	// Every other lane is placed by c.rows, inline: a call per lane would
	// shrink how many lanes' misses overlap. A row in the view's arena
	// (Col, or a tiered store's hot arena) is read there, and so is a
	// slot sampler's cold row — Column Access decodes its one drawn slot.
	// Row Access touches the row's ends for samplers that read it or for
	// Column Access's hot slot (a full-row scan's interior too), and a
	// cold row's encoded head. Overlay rows, and cold rows a sampler
	// reads whole, are resolved. Alias stores get their locator and row
	// ends touched for the Sample pass.
	rows, acc, at, mem, buf := c.rows, c.acc, c.at[:n], c.mem[:n], c.buf[:n]
	slot := acc == graph.AccessSlot
	flatSlot, rowPtr := slot && rows.Flat(), g.RowPtr
	arena, arenaW := rows.Arena()
	if acc != graph.AccessWeights {
		arenaW = nil
	}
	tiered, alias, tieredAlias := rows.Tiered(), c.aliasStore, c.tieredAlias
	touchEnds := !slot || tiered != nil
	for i := 0; i < n; i++ {
		if phase[i] != phaseRow {
			continue
		}
		v := cur[i]
		if flatSlot {
			// Every row of a flat view is in Col, and a slot sampler needs
			// only its bounds: Locate's two loads, without its checks.
			hi := rowPtr[v+1]
			lo := rowPtr[v]
			if lo == hi {
				fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			los[i], his[i] = lo, hi
		} else {
			var row []graph.VertexID // the row's ends to touch
			off, deg, place := rows.Locate(v)
			if place == graph.InOverlay || place == graph.InCold && !slot {
				r := rows.Resolve(v, &buf[i], acc)
				off, deg = r.Off, r.Deg
				mem[i].Row, mem[i].Wts = r.Row, r.Wts
				if !slot {
					row = r.Row
				}
			}
			if deg == 0 {
				fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			at[i] = place
			los[i], his[i] = off, off+int64(deg)
			switch {
			case place == graph.InCold && slot:
				mem[i].Row = nil
				c.touch ^= tiered.TouchRow(v)
			case place == graph.InArena && touchEnds:
				row = arena[off : off+int64(deg)]
				if !slot {
					mem[i].Row = row
					if arenaW != nil {
						mem[i].Wts = arenaW[off : off+int64(deg)]
					}
				}
			}
			if row != nil {
				c.touch ^= uint64(row[0]) ^ uint64(row[len(row)-1])
				if c.scanRow {
					for off := 16; off < len(row) && off <= 112; off += 16 {
						c.touch ^= uint64(row[off])
					}
				}
			}
		}
		if alias != nil {
			c.touch ^= alias.TouchRow(v)
		}
		if tieredAlias != nil {
			c.touch ^= tieredAlias.TouchRow(v)
		}
	}
}

// sample runs one sampling decision attempt per lane. The pass is chosen
// once by the sampler's kind: the slot kinds draw directly (uniform from
// the gathered degree, alias from the flat store — no interface dispatch,
// Context build or Candidate store per lane); every other sampler runs
// the stage-resumable Propose/Accept protocol, where a rejected candidate
// parks in the lane and re-enters next pass instead of spinning inline.
// All paths draw from the lane's own stream in Advance's order.
func (c *Cohort) sample() {
	switch {
	case c.kind == sampling.KindUniform:
		n := c.n
		fate, idx, rs := c.fate[:n], c.idx[:n], c.r[:n]
		los, his := c.lo[:n], c.hi[:n]
		for i := 0; i < n; i++ {
			if fate[i] != fateNone {
				continue
			}
			idx[i] = int32(rs[i].Intn(int(his[i] - los[i])))
			fate[i] = fateMove
		}
	case c.aliasStore != nil:
		n := c.n
		fate, idx, rs, cur := c.fate[:n], c.idx[:n], c.r[:n], c.cur[:n]
		alias := c.aliasStore
		for i := 0; i < n; i++ {
			if fate[i] != fateNone {
				continue
			}
			k := alias.DrawAt(cur[i], rs[i])
			if k < 0 {
				fate[i] = fateRetire // no alias row
				continue
			}
			idx[i] = int32(k)
			fate[i] = fateMove
		}
	case c.rej != nil && c.flat():
		c.sampleRejection()
	default:
		c.sampleStaged()
	}
}

// sampleRejection is the Sample pass for node2vec's rejection sampler on
// flat lanes. It runs each trip as two passes, so every memory access is
// a loop of independent misses across lanes rather than one dependent
// Propose → Col → HasEdge → coin chain per lane:
//
//   - Propose, coin and column: draw the candidate slot, load its column
//     entry and draw the coin — Propose's and Accept's draws in their
//     order. Rejection.Decide settles most trips from the coin alone.
//   - Prev Access, over only the undecided lanes: a fence-index search
//     (graph.Fences) for the candidate in the lane's previous row
//     [plo, phi), which is N(prev) — about log₁₆ of its degree dependent
//     cache lines, so neighbouring lanes' probes overlap.
//
// Accepted lanes keep their row as the next hop's previous row; rejected
// lanes park exactly as sampleStaged parks them.
func (c *Cohort) sampleRejection() {
	n := c.n
	fate, phase, idx, nxt, rs := c.fate[:n], c.phase[:n], c.idx[:n], c.nxt[:n], c.r[:n]
	prev, hasPrev, cand := c.prev[:n], c.hasPrev[:n], c.cand[:n]
	los, his, plo, phi := c.lo[:n], c.hi[:n], c.plo[:n], c.phi[:n]
	rej, col, fences := c.rej, c.g.Col, c.fences
	probe := c.probe[:0]
	for i := 0; i < n; i++ {
		if fate[i] != fateNone {
			continue
		}
		lo, hi := los[i], his[i]
		k := rs[i].Intn(int(hi - lo))
		x := col[lo+int64(k)]
		idx[i], nxt[i] = int32(k), x
		if !hasPrev[i] {
			// First hop: no previous vertex, so the uniform proposal is final.
			fate[i] = fateMove
			plo[i], phi[i] = lo, hi
			continue
		}
		trips := cand[i].Trips + 1
		switch rej.Decide(rs[i].Float64(), trips, x == prev[i]) {
		case sampling.Accepted:
			fate[i] = fateMove
			plo[i], phi[i] = lo, hi
			cand[i].Trips = 0
		case sampling.Rejected:
			cand[i].Trips = trips // the next pass resumes from here
			phase[i] = phaseParked
		default:
			cand[i].Trips = trips
			probe = append(probe, int32(i))
		}
	}
	for _, i := range probe {
		if rej.Probed(fences.Contains(plo[i], phi[i], nxt[i])) {
			fate[i] = fateMove
			plo[i], phi[i] = los[i], his[i]
			cand[i].Trips = 0
		} else {
			phase[i] = phaseParked
		}
	}
}

// sampleStaged is the Sample pass for samplers that read rows or resume
// across passes (rejection off flat lanes, reservoir, metapath, the
// tiered alias store). Each reads the lane's resolved rows in mem.
func (c *Cohort) sampleStaged() {
	g := c.g
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateNone {
			continue
		}
		ctx := sampling.Context{Cur: c.cur[i], Prev: c.prev[i], HasPrev: c.hasPrev[i], Deg: int32(c.hi[i] - c.lo[i]), Step: int(c.step[i]), Mem: &c.mem[i]}
		cand := c.sampler.Propose(g, ctx, c.cand[i], c.r[i])
		if !cand.Final && !c.sampler.Accept(g, ctx, cand, c.r[i]) {
			c.cand[i] = cand // the next pass resumes from here
			c.phase[i] = phaseParked
			continue
		}
		c.cand[i] = sampling.Candidate{}
		if cand.Index < 0 {
			c.fate[i] = fateRetire // no selectable neighbor
			continue
		}
		c.idx[i] = int32(cand.Index)
		c.fate[i] = fateMove
	}
}

// columnAccess reads the one column entry each accepted lane drew:
// nxt[i] = Col[lo[i]+idx[i]] on the flat store, where that is the whole
// loop body, so the misses of every moving lane overlap. Other lanes
// read the view's arena by lo, their resolved row, or the one slot of a
// cold row left encoded.
func (c *Cohort) columnAccess() {
	if c.flat() {
		n := c.n
		fate, los, idx, nxt, col := c.fate[:n], c.lo[:n], c.idx[:n], c.nxt[:n], c.g.Col
		for i := 0; i < n; i++ {
			if fate[i] == fateMove {
				nxt[i] = col[los[i]+int64(idx[i])]
			}
		}
		return
	}
	arena, _ := c.rows.Arena()
	tiered := c.rows.Tiered()
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateMove {
			continue
		}
		switch row := c.mem[i].Row; {
		case c.at[i] == graph.InArena:
			c.nxt[i] = arena[c.lo[i]+int64(c.idx[i])]
		case row != nil:
			c.nxt[i] = row[c.idx[i]]
		default:
			c.nxt[i] = tiered.ColdEntryAt(c.cur[i], c.lo[i], c.idx[i])
		}
	}
}

// move applies accepted hops, extends paths, and decides continuation —
// the PPR teleport draw comes from the lane's stream immediately after
// its accept draw, preserving Advance's per-walker order.
func (c *Cohort) move(depart func(tag int32, cur graph.VertexID) bool) {
	length := int32(c.cfg.WalkLength)
	ppr, alpha := c.cfg.Algorithm == PPR, c.cfg.Alpha
	n := c.n
	phase, fate, step, nxt := c.phase[:n], c.fate[:n], c.step[:n], c.nxt[:n]
	cur, prev, hasPrev, sts := c.cur[:n], c.prev[:n], c.hasPrev[:n], c.st[:n]
	keepPrev := c.keepPrev
	for i := 0; i < n; i++ {
		if fate[i] != fateMove {
			continue
		}
		next := nxt[i]
		prev[i], hasPrev[i] = cur[i], true
		if keepPrev {
			// The row just sampled is N(prev) from the next hop on; its
			// buffer becomes the spare, out of the next decode's way.
			c.mem[i].Prev = c.mem[i].Row
			c.buf[i].Swap()
		}
		cur[i] = next
		st := sts[i]
		st.Path = append(st.Path, next)
		step[i]++
		if ppr && c.r[i].Float64() < alpha {
			fate[i] = fateRetire // teleport ends the query
			continue
		}
		if step[i] >= length {
			fate[i] = fateRetire
			continue
		}
		if depart != nil && depart(c.tag[i], next) {
			fate[i] = fateDepart
			continue
		}
		fate[i] = fateNone
		phase[i] = phaseRow
	}
}

// sweep syncs departing and finished lanes back into their States, hands
// them to the caller, and compacts the ring.
func (c *Cohort) sweep(eject func(tag int32), retire func(tag int32) error) error {
	var err error
	for i := 0; i < c.n; {
		switch c.fate[i] {
		case fateRetire:
			c.syncState(i)
			t := c.tag[i]
			c.remove(i)
			if e := retire(t); e != nil && err == nil {
				err = e
			}
		case fateDepart:
			c.syncState(i)
			t := c.tag[i]
			c.remove(i)
			eject(t)
		default:
			i++
		}
	}
	return err
}
