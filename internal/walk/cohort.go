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
// preallocated at capacity, and path appends stay within the caller's
// preallocated buffers.
type Cohort struct {
	g       *graph.CSR
	sampler sampling.StagedSampler
	cfg     Config
	kind    sampling.Kind
	// scanRow marks samplers that read the whole neighbor row per
	// decision (reservoir, metapath): for those, Row Access touches the
	// row's ends and interior cache lines. Rejection reads single
	// candidates: its flat, unversioned lanes take the two-load Row
	// Access (the Sample pass's column loads are independent misses
	// already) and the others get only the row ends.
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

	// arenaCol caches the tiered store's hot arena.
	arenaCol []graph.VertexID

	// Tiered-store state (SetTiered). The Row Access stage decodes cold rows
	// into per-lane scratch that persists across passes — a lane parked
	// mid-rejection re-enters Sample without re-decoding — and the
	// Sample stage hands the sampler a per-lane RowView so it never
	// reads the CSR's Col (cold rows do not live there).
	tiered *graph.Tiered
	tview  *graph.TierView
	hotW   []float32 // tiered hot weight arena, parallel to arenaCol
	rowBuf [][]graph.VertexID
	wtsBuf [][]float32
	scr    []bool // lane's gathered row lives in rowBuf scratch
	mem    []sampling.RowView
	// Snapshot-overlay state (SetSnapshot). Lanes standing on a vertex
	// dirty for the serving epoch gather the snapshot's merged row into
	// ovRow/ovWts instead of any base-row source. The overlay rows are
	// snapshot-owned (never written through), deliberately separate from
	// rowBuf: DecodeRowInto writes into rowBuf in place and would corrupt
	// a snapshot row stored there.
	snap  *graph.Snapshot
	ovRow [][]graph.VertexID
	ovWts [][]float32
	ovl   []bool
	// needW marks full-row-scan samplers on weighted graphs: only those
	// read weight rows, so only they pay cold weight decode.
	needW bool
	// slotKind marks samplers that consume only the degree plus one drawn
	// neighbor slot per hop (uniform draws by index, alias draws from its
	// own store): Row Access never touches their rows, and under a tiered
	// store their cold rows skip the full decode — Column Access reads the
	// one slot straight from the compressed arena.
	slotKind bool

	// Struct-of-arrays lane state. The gathered row is kept as scalar
	// locator fields (bounds plus which array) rather than a slice
	// header: the Row Access loop's usefulness is how many independent
	// row misses it keeps in flight, and a leaner loop body keeps more
	// iterations inside the out-of-order window.
	cur, prev []graph.VertexID
	hasPrev   []bool
	step      []int32
	lo, hi    []int64          // gathered row bounds in Col or the hot arena
	arena     []bool           // gathered row lives in the hot arena
	idx       []int32          // Sample's accepted slot within the row
	nxt       []graph.VertexID // Column Access's fetched neighbor
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
		slotKind:    kind == sampling.KindUniform || kind == sampling.KindAlias,
		aliasStore:  aliasStore,
		tieredAlias: tieredAlias,
		cur:         make([]graph.VertexID, size),
		prev:        make([]graph.VertexID, size),
		hasPrev:     make([]bool, size),
		step:        make([]int32, size),
		lo:          make([]int64, size),
		hi:          make([]int64, size),
		arena:       make([]bool, size),
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
	return c, nil
}

// flat reports whether lanes read rows straight from the CSR: no tiered
// store or epoch snapshot. Only flat lanes run sampleRejection.
func (c *Cohort) flat() bool { return c.tiered == nil && c.snap == nil }

// SetTiered routes the Row Access stage through a tiered graph store: hot
// rows come from the store's uncompressed arena, cold rows are decoded
// row-at-a-time into per-lane scratch, and the Sample stage serves the
// sampler a staged RowView — Sample and Move never see which tier a row
// came from. Because a tiered store is content-identical to its CSR,
// trajectories are unaffected. Call before the first Admit; nil restores
// direct CSR reads.
func (c *Cohort) SetTiered(t *graph.Tiered) {
	c.tiered = t
	if t == nil {
		c.tview = nil
		c.arenaCol = nil
		c.hotW = nil
		c.needW = false
		return
	}
	c.tview = graph.NewTierView(t)
	c.arenaCol = t.HotArena()
	c.hotW = t.HotWeights()
	c.needW = c.scanRow && t.Graph().Weighted()
	if c.rowBuf == nil {
		size := len(c.cur)
		c.rowBuf = make([][]graph.VertexID, size)
		c.wtsBuf = make([][]float32, size)
		c.scr = make([]bool, size)
		c.mem = make([]sampling.RowView, size)
	}
}

// SetSnapshot makes the cohort serve an epoch snapshot of a versioned
// graph: lanes on vertices dirty for the snapshot's epoch gather the
// merged overlay row, and second-order probes route through the
// snapshot. The cohort's graph must be snap.Graph(). Composes with
// SetTiered (clean rows keep their fast paths). Call
// before the first Admit; nil restores base-only reads.
func (c *Cohort) SetSnapshot(snap *graph.Snapshot) {
	c.snap = snap
	if snap == nil {
		return
	}
	size := len(c.cur)
	if c.mem == nil {
		c.mem = make([]sampling.RowView, size)
	}
	if c.ovl == nil {
		c.ovRow = make([][]graph.VertexID, size)
		c.ovWts = make([][]float32, size)
		c.ovl = make([]bool, size)
	}
}

// ScratchBytes reports the decode-scratch high water across lanes and
// the per-cohort TierView cache — the "scratch" term of the tier
// accounting (0 for flat cohorts).
func (c *Cohort) ScratchBytes() int64 {
	var b int64
	for i := range c.rowBuf {
		b += int64(cap(c.rowBuf[i])) * 4
	}
	for i := range c.wtsBuf {
		b += int64(cap(c.wtsBuf[i])) * 4
	}
	if c.tview != nil {
		b += c.tview.ScratchBytes()
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
	c.arena[i] = false
	if c.scr != nil {
		c.scr[i] = false
	}
	if c.ovl != nil {
		c.ovl[i] = false
	}
	if c.plo != nil && st.HasPrev && c.flat() {
		// A walker arriving mid-walk (a shard migration, a resumed State)
		// has no previous row yet: load N(prev)'s bounds once.
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
		c.arena[i] = c.arena[j]
		c.cand[i] = c.cand[j]
		c.phase[i] = c.phase[j]
		c.fate[i] = c.fate[j]
		c.tag[i] = c.tag[j]
		c.st[i] = c.st[j]
		c.r[i] = c.r[j]
		if c.plo != nil {
			c.plo[i], c.phi[i] = c.plo[j], c.phi[j]
		}
		if c.scr != nil {
			// Swap (not copy) the decode buffers so lane j keeps a
			// recyclable buffer — a parked lane's scratch row must follow
			// it to its new slot.
			c.rowBuf[i], c.rowBuf[j] = c.rowBuf[j], c.rowBuf[i]
			c.wtsBuf[i], c.wtsBuf[j] = c.wtsBuf[j], c.wtsBuf[i]
			c.scr[i] = c.scr[j]
		}
		if c.ovl != nil {
			// Plain copy: overlay rows alias snapshot storage, not
			// lane-owned buffers, so nothing needs swapping back.
			c.ovRow[i] = c.ovRow[j]
			c.ovWts[i] = c.ovWts[j]
			c.ovl[i] = c.ovl[j]
		}
	}
	c.st[j] = nil
	c.r[j] = nil
	if c.ovl != nil {
		c.ovRow[j] = nil
		c.ovWts[j] = nil
		c.ovl[j] = false
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

// overlayRow is the Row Access hook for epoch snapshots (c.snap
// non-nil): when lane i's vertex is dirty for the serving epoch it
// stages the snapshot's merged row (zero-degree merged rows retire) and
// reports true — the caller skips its base-row gather. Clean vertices
// clear the lane's overlay mark and gather from the base as usual.
func (c *Cohort) overlayRow(i int, v graph.VertexID) bool {
	if !c.snap.Dirty(v) {
		c.ovl[i] = false
		return false
	}
	row, wts := c.snap.MergedRow(v)
	if len(row) == 0 {
		c.fate[i] = fateRetire // zero out-degree at this epoch
		return true
	}
	c.ovRow[i], c.ovWts[i] = row, wts
	c.ovl[i] = true
	c.lo[i], c.hi[i] = 0, int64(len(row))
	c.arena[i] = false
	if c.scr != nil {
		c.scr[i] = false
	}
	if c.aliasStore != nil {
		c.touch ^= c.aliasStore.TouchRow(v)
	}
	return true
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

// rowAccess fetches the neighbor row bounds for every lane entering a new
// step. Sinks retire here, before any RNG draw, exactly as Advance orders
// it (the walk-length bound, Advance's other pre-draw check, is applied
// by Admit and after every hop by Move). The loop is specialized on the
// row source once per pass — the body must stay lean enough that many
// lanes' independent misses overlap inside the out-of-order window, which
// is the whole point of the stage. On the flat CSR, lanes whose sampler
// reads single entries (uniform, rejection) load only the row bounds.
func (c *Cohort) rowAccess() {
	g := c.g
	if c.tiered != nil {
		// Tiered variant: hot rows resolve to the uncompressed hot arena
		// (one locator load); cold rows decode into
		// the lane's scratch, which persists across passes — a lane parked
		// mid-rejection re-enters Sample without re-decoding.
		for i := 0; i < c.n; i++ {
			if c.phase[i] != phaseRow {
				continue
			}
			v := c.cur[i]
			if c.snap != nil && c.overlayRow(i, v) {
				continue
			}
			off, deg, hot := c.tiered.Locate(v)
			if deg == 0 {
				c.fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			if hot {
				lo, hi := off, off+int64(deg)
				c.lo[i], c.hi[i] = lo, hi
				c.arena[i], c.scr[i] = true, false
				c.touch ^= uint64(c.arenaCol[lo]) ^ uint64(c.arenaCol[hi-1])
				if c.scanRow {
					for o := lo + 16; o < hi && o <= lo+112; o += 16 {
						c.touch ^= uint64(c.arenaCol[o])
					}
				}
			} else if c.slotKind {
				// Slot fast path: the sampler reads only the degree and
				// Column Access one drawn slot, so the row stays encoded. lo
				// carries the cold byte offset; hi keeps Deg = hi-lo intact.
				c.lo[i], c.hi[i] = off, off+int64(deg)
				c.arena[i], c.scr[i] = false, false
				c.touch ^= c.tiered.TouchRow(v)
			} else {
				row, wts := c.tiered.DecodeRowInto(v, c.rowBuf[i], c.wtsBuf[i], c.needW)
				c.rowBuf[i] = row
				if c.needW {
					c.wtsBuf[i] = wts
				}
				c.lo[i], c.hi[i] = 0, int64(deg)
				c.arena[i], c.scr[i] = false, true
			}
			if c.aliasStore != nil {
				c.touch ^= c.aliasStore.TouchRow(v)
			}
			if c.tieredAlias != nil {
				c.touch ^= c.tieredAlias.TouchRow(v)
			}
		}
	} else {
		// Flat CSR. The lane arrays and loop-invariant flags are hoisted
		// into locals: every instruction saved here is room for one more
		// lane's miss inside the out-of-order window.
		n := c.n
		phase, fate, cur := c.phase[:n], c.fate[:n], c.cur[:n]
		los, his := c.lo[:n], c.hi[:n]
		// Full-row scans read the row here, and so do the staged samplers
		// behind a snapshot; flat rejection lanes load their candidates
		// in the Sample pass, as a loop of independent misses.
		rowPtr, snap, alias := g.RowPtr, c.snap, c.aliasStore
		readsRow := c.scanRow || (!c.slotKind && snap != nil)
		if snap == nil && !readsRow && alias == nil {
			// Uniform draws and flat rejection on an unversioned graph
			// (URW, PPR, unweighted Node2Vec): the two row-pointer loads
			// and nothing else. The Sample pass or Column Access fetches
			// the drawn entries, and a body without calls keeps every
			// array base in a register.
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
		// The same loads plus what the lane's sampler or snapshot needs:
		// the overlay check, the row's ends for samplers that read it
		// (reservoir, metapath and, under a snapshot, rejection; full-row
		// scans also its interior), the alias store's locator and row
		// ends.
		for i := 0; i < n; i++ {
			if phase[i] != phaseRow {
				continue
			}
			v := cur[i]
			if snap != nil && c.overlayRow(i, v) {
				continue
			}
			hi := rowPtr[v+1]
			lo := rowPtr[v]
			if lo == hi {
				fate[i] = fateRetire // zero out-degree: immediate termination
				continue
			}
			los[i], his[i] = lo, hi
			if readsRow {
				c.touch ^= uint64(g.Col[lo]) ^ uint64(g.Col[hi-1])
				if c.scanRow {
					for off := lo + 16; off < hi && off <= lo+112; off += 16 {
						c.touch ^= uint64(g.Col[off])
					}
				}
			}
			if alias != nil {
				c.touch ^= alias.TouchRow(v)
			}
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
// across passes (rejection, reservoir, metapath, the tiered alias store).
func (c *Cohort) sampleStaged() {
	g := c.g
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateNone {
			continue
		}
		ctx := sampling.Context{Cur: c.cur[i], Prev: c.prev[i], HasPrev: c.hasPrev[i], Deg: int32(c.hi[i] - c.lo[i]), Step: int(c.step[i])}
		if (c.tiered != nil || c.snap != nil) && !c.slotKind {
			// Stage the gathered row for the sampler: under a tiered store
			// it must not read the CSR's Col (cold rows do not live there),
			// and under a snapshot its second-order probes must route
			// through the overlay. Slot-kind samplers never read rows, so
			// their lanes skip the staging.
			m := &c.mem[i]
			switch {
			case c.ovl != nil && c.ovl[i]:
				m.Row, m.Wts = c.ovRow[i], c.ovWts[i]
			case c.scr != nil && c.scr[i]:
				m.Row, m.Wts = c.rowBuf[i], c.wtsBuf[i]
			case c.tiered != nil:
				m.Row = c.arenaCol[c.lo[i]:c.hi[i]]
				m.Wts = nil
				if c.needW {
					m.Wts = c.hotW[c.lo[i]:c.hi[i]]
				}
			default:
				// Flat store, clean lane under a snapshot: stage the base
				// row by vertex.
				m.Row = g.Neighbors(c.cur[i])
				m.Wts = nil
				if g.Weighted() {
					m.Wts = g.NeighborWeights(c.cur[i])
				}
			}
			m.Tier = c.tview
			m.Snap = c.snap
			ctx.Mem = m
		}
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
// nxt[i] = base[lo[i]+idx[i]]. On the flat store that is the whole loop
// body, so the misses of every moving lane overlap; the other row sources
// resolve which array the lane's row lives in first.
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
	for i := 0; i < c.n; i++ {
		if c.fate[i] != fateMove {
			continue
		}
		switch {
		case c.ovl != nil && c.ovl[i]:
			// Overlay lane: the merged row replaced every base source
			// (checked first — its arena/scr marks are cleared, so the
			// tiered case below would misroute it to the cold arena).
			c.nxt[i] = c.ovRow[i][c.idx[i]]
		case c.tiered != nil && !c.arena[i] && !c.scr[i]:
			// Slot-kind cold lane: the row never decoded; lo is the cold
			// byte offset (Row Access's fast path).
			c.nxt[i] = c.tiered.ColdEntryAt(c.cur[i], c.lo[i], c.idx[i])
		case c.scr != nil && c.scr[i]:
			c.nxt[i] = c.rowBuf[i][c.idx[i]] // decoded cold row; lo is 0
		case c.arena[i]:
			c.nxt[i] = c.arenaCol[c.lo[i]+int64(c.idx[i])]
		default:
			c.nxt[i] = c.g.Col[c.lo[i]+int64(c.idx[i])]
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
	for i := 0; i < n; i++ {
		if fate[i] != fateMove {
			continue
		}
		next := nxt[i]
		prev[i], hasPrev[i] = cur[i], true
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
