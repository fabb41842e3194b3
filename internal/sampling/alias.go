package sampling

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// Packed alias-row locator layout: offset(40) | len(24). One word per
// vertex locates its alias row inside the shared prob/alias arenas — the
// software shadow of the paper's 256-bit RP entry, which points at a flat
// pre-sampled auxiliary region in HBM rather than at per-vertex heap
// objects. 2^40 arena slots (1T edges) and 2^24 max degree (16.7M)
// comfortably exceed every graph this repository generates.
const (
	aliasDegBits  = 24
	aliasDegMask  = 1<<aliasDegBits - 1
	aliasOffShift = aliasDegBits
	aliasMaxOff   = 1 << 40
)

// aliasScratch is one builder's reusable Vose worklist storage, grown to
// the largest row it has seen and recycled across vertices, so a
// steady-state build performs no per-vertex allocations.
type aliasScratch struct {
	scaled []float64
	small  []int32
	large  []int32
}

func (sc *aliasScratch) grow(n int) {
	if cap(sc.scaled) < n {
		sc.scaled = make([]float64, n)
		sc.small = make([]int32, 0, n)
		sc.large = make([]int32, 0, n)
	}
}

// buildAliasRow runs Vose's stable two-worklist construction for one
// weight row, writing the table into prob/alias (both of length
// len(weights)). The construction is deterministic in the weights, so
// every representation built from the same row draws identically.
func buildAliasRow(prob []float64, alias []int32, weights []float32, sc *aliasScratch) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("sampling: alias table over empty weight set")
	}
	total := 0.0
	for i, w := range weights {
		// NaN and non-positive weights fail the first test; +Inf passes
		// it but would poison total (every scaled entry becomes NaN and
		// the table silently draws garbage), so reject it explicitly.
		if !(w > 0) || math.IsInf(float64(w), 1) {
			return fmt.Errorf("sampling: weight[%d]=%v, want finite and > 0", i, w)
		}
		total += float64(w)
	}
	sc.grow(n)
	scaled := sc.scaled[:n]
	small := sc.small[:0]
	large := sc.large[:0]
	for i, w := range weights {
		scaled[i] = float64(w) * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		// Only numerically-rounded leftovers end up here.
		prob[i] = 1
		alias[i] = i
	}
	return nil
}

// AliasTable is a standalone Walker alias structure over n weighted
// outcomes, supporting O(1) draws after O(n) construction. The graph-wide
// samplers no longer build one of these per vertex — they pack all rows
// into an AliasSampler's shared arenas — but the standalone form remains
// for callers sampling over ad-hoc weight sets.
type AliasTable struct {
	prob  []float64
	alias []int32
}

// NewAliasTable builds a table for the given positive, finite weights.
func NewAliasTable(weights []float32) (*AliasTable, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: alias table over empty weight set")
	}
	t := &AliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	if err := buildAliasRow(t.prob, t.alias, weights, &aliasScratch{}); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of outcomes.
func (t *AliasTable) Len() int { return len(t.prob) }

// Draw returns an outcome index distributed proportionally to the weights.
func (t *AliasTable) Draw(r *rng.Stream) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// AliasSampler implements DeepWalk's weighted neighbor selection with a
// flat, arena-backed alias store: every vertex's alias table is packed
// into two shared arrays (prob, alias) laid out exactly like the CSR's
// edge space, plus one packed locator word (offset|len) per vertex —
// mirroring the paper's RP entries, which point into a flat pre-sampled
// region of HBM. Draws are pointer-free (one locator load, two arena
// loads) and the whole store is three slices, so GC scan load is O(1)
// instead of O(V) table pointers.
type AliasSampler struct {
	prob  []float64
	alias []int32
	loc   []uint64
	// bytes is the prob+alias arena footprint, tracked at build so
	// TableBytes is O(1).
	bytes int64

	// spillProb/spillAlias hold incrementally rebuilt rows of a sampler
	// derived via WithRebuiltRows: the base arenas stay shared (and
	// untouched), dirty rows are re-packed here, and their locators carry
	// offsets displaced by len(prob) — off >= len(prob) routes a draw to
	// the spill arenas. Nil on a base sampler.
	spillProb  []float64
	spillAlias []int32

	// spare is the locator array of an evicted derived sampler, kept on
	// the base for the next WithRebuiltRows to refill: an epoch switch
	// then copies V locator words into memory it already holds instead of
	// allocating (and page-faulting in) a fresh O(V) array. Guarded by
	// spareMu; nil on derived samplers.
	spareMu sync.Mutex
	spare   []uint64
}

// NewAliasSampler packs alias tables for every vertex of g with degree > 0
// into the shared arenas, building rows in parallel across
// runtime.GOMAXPROCS(0) workers. The graph must be weighted.
func NewAliasSampler(g *graph.CSR) (*AliasSampler, error) {
	return NewAliasSamplerWorkers(g, 0)
}

// NewAliasSamplerWorkers is NewAliasSampler with an explicit builder pool
// size (0 means runtime.GOMAXPROCS(0)). Vertices are partitioned into
// contiguous edge-balanced ranges, one per worker; each worker constructs
// its rows with reusable Vose scratch, so a build performs O(1)
// allocations beyond the three arenas regardless of graph size. The
// arenas and every row in them are identical at any worker count.
func NewAliasSamplerWorkers(g *graph.CSR, workers int) (*AliasSampler, error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("sampling: alias sampler requires a weighted graph")
	}
	if int64(len(g.Col)) >= aliasMaxOff || (g.NumVertices > 0 && g.MaxDegree() > aliasDegMask) {
		return nil, fmt.Errorf("sampling: graph exceeds alias locator packing limits (%d edges, max degree %d)",
			len(g.Col), g.MaxDegree())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > g.NumVertices {
		workers = g.NumVertices
	}
	if workers < 1 {
		workers = 1
	}
	s := &AliasSampler{
		prob:  make([]float64, len(g.Col)),
		alias: make([]int32, len(g.Col)),
		loc:   make([]uint64, g.NumVertices),
		bytes: int64(len(g.Col)) * 12,
	}
	// Degree-partitioned ranges: split the vertex space at edge-count
	// boundaries so each worker owns ~1/workers of the arena, not of the
	// vertex count — on power-law graphs the hub-heavy prefix would
	// otherwise serialize the build on one worker.
	bounds := make([]int, workers+1)
	bounds[workers] = g.NumVertices
	perWorker := (int64(len(g.Col)) + int64(workers) - 1) / int64(workers)
	for w, v := 1, 0; w < workers; w++ {
		target := int64(w) * perWorker
		for v < g.NumVertices && g.RowPtr[v] < target {
			v++
		}
		bounds[w] = v
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc aliasScratch
			for v := bounds[w]; v < bounds[w+1]; v++ {
				off, hi := g.RowPtr[v], g.RowPtr[v+1]
				deg := hi - off
				s.loc[v] = uint64(off)<<aliasOffShift | uint64(deg)
				if deg == 0 {
					continue
				}
				ws := g.Weights[off:hi]
				if err := buildAliasRow(s.prob[off:hi], s.alias[off:hi], ws, &sc); err != nil {
					errs[w] = fmt.Errorf("sampling: vertex %d: %w", v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DrawAt returns a neighbor index of v distributed proportionally to v's
// edge weights, or -1 when v has no outgoing edges. The draw is
// pointer-free: one locator load plus two arena loads.
func (s *AliasSampler) DrawAt(v graph.VertexID, r *rng.Stream) int {
	p := s.loc[v]
	deg := int(p & aliasDegMask)
	if deg == 0 {
		return -1
	}
	off := p >> aliasOffShift
	i := r.Intn(deg)
	prob, alias := s.prob, s.alias
	if off >= uint64(len(s.prob)) {
		// Spill row of a WithRebuiltRows-derived sampler.
		off -= uint64(len(s.prob))
		prob, alias = s.spillProb, s.spillAlias
	}
	if r.Float64() < prob[off+uint64(i)] {
		return i
	}
	return int(alias[off+uint64(i)])
}

// TouchRow loads v's locator word and the boundary slots of its alias row,
// returning mixed bits the caller must fold into a sink so the compiler
// keeps the loads. Row Access stages call it alongside the CSR row-locator
// load to put the alias row's cache lines in flight before the Sample
// stage draws from them.
func (s *AliasSampler) TouchRow(v graph.VertexID) uint64 {
	p := s.loc[v]
	deg := p & aliasDegMask
	if deg == 0 {
		return p
	}
	off := p >> aliasOffShift
	prob, alias := s.prob, s.alias
	if off >= uint64(len(s.prob)) {
		off -= uint64(len(s.prob))
		prob, alias = s.spillProb, s.spillAlias
	}
	return p ^ math.Float64bits(prob[off]) ^ uint64(uint32(alias[off+deg-1]))
}

// TableBytes reports the alias-arena memory footprint (8-byte prob +
// 4-byte alias per slot) — the auxiliary structure the 256-bit RP entry
// points at. Tracked at build, so this is O(1).
func (s *AliasSampler) TableBytes() int64 { return s.bytes }

// MemoryFootprint is TableBytes plus the per-vertex locator words — the
// store's whole resident size.
func (s *AliasSampler) MemoryFootprint() int64 {
	return s.bytes + int64(len(s.loc))*8
}

// WithRebuiltRows derives a sampler for an epoch snapshot by rebuilding
// only the snapshot's dirty rows — the incremental maintenance path for
// dynamic graphs. The base prob/alias arenas are shared untouched (the
// packed-locator layout isolates rows, so clean locators keep pointing
// into them); dirty rows are re-packed into fresh spill arenas sized to
// their merged degrees, and only their locators are repointed. A
// mutation touching k vertices therefore costs O(k·deg) row builds plus
// one O(V) locator-word copy (into the locator array of the last evicted
// derived sampler, when there is one) — never the O(E) arena rebuild of
// a cold NewAliasSampler. Rows come out of the same deterministic Vose
// construction, so draws over clean and rebuilt rows alike are identical
// to a cold build of the merged graph.
//
// The receiver must be a base sampler built over snap.Graph(); deriving
// from an already-derived sampler is rejected (always derive from the
// epoch's base so spill arenas never chain).
func (s *AliasSampler) WithRebuiltRows(snap *graph.Snapshot) (*AliasSampler, error) {
	if s.spillProb != nil {
		return nil, fmt.Errorf("sampling: WithRebuiltRows on an already-derived sampler")
	}
	dirty := snap.DirtyVertices()
	var entries int64
	for _, v := range dirty {
		deg := int64(snap.Degree(v))
		if deg > aliasDegMask {
			return nil, fmt.Errorf("sampling: vertex %d degree %d exceeds alias locator packing limit", v, deg)
		}
		entries += deg
	}
	if uint64(len(s.prob))+uint64(entries) >= aliasMaxOff {
		return nil, fmt.Errorf("sampling: spill arena exceeds alias locator offset limit")
	}
	d := &AliasSampler{
		prob:       s.prob,
		alias:      s.alias,
		loc:        s.spareLoc(),
		bytes:      s.bytes + entries*12,
		spillProb:  make([]float64, entries),
		spillAlias: make([]int32, entries),
	}
	spillBase := uint64(len(s.prob))
	var off int64
	var sc aliasScratch
	for _, v := range dirty {
		row, wts := snap.MergedRow(v)
		deg := int64(len(row))
		d.loc[v] = (spillBase+uint64(off))<<aliasOffShift | uint64(deg)
		if deg == 0 {
			continue
		}
		if wts == nil {
			return nil, fmt.Errorf("sampling: vertex %d has no weights in snapshot", v)
		}
		if err := buildAliasRow(d.spillProb[off:off+deg], d.spillAlias[off:off+deg], wts, &sc); err != nil {
			return nil, fmt.Errorf("sampling: vertex %d: %w", v, err)
		}
		off += deg
	}
	return d, nil
}

// spareLoc returns a copy of s.loc, written into the spare array when
// there is one.
func (s *AliasSampler) spareLoc() []uint64 {
	s.spareMu.Lock()
	loc := s.spare
	s.spare = nil
	s.spareMu.Unlock()
	if loc == nil {
		loc = make([]uint64, len(s.loc))
	}
	copy(loc, s.loc)
	return loc
}

// recycle keeps the locator array of d, a sampler derived from s that
// nothing borrows any more, as s's spare. d must not be used afterwards;
// its locators are cleared so a stray draw fails instead of reading the
// next epoch's rows.
func (s *AliasSampler) recycle(d *AliasSampler) {
	s.spareMu.Lock()
	if s.spare == nil {
		s.spare = d.loc
	}
	s.spareMu.Unlock()
	d.loc = nil
}

// SpillEntries reports the number of alias slots in the spill arenas (0
// on a base sampler) — the incremental-maintenance cost, in entries.
func (s *AliasSampler) SpillEntries() int { return len(s.spillProb) }

// SharesArenasWith reports whether s and o share the same base arenas —
// true exactly when one was derived from the other (or both from the
// same base) without copying the O(E) tables.
func (s *AliasSampler) SharesArenasWith(o *AliasSampler) bool {
	return len(s.prob) > 0 && len(o.prob) > 0 && &s.prob[0] == &o.prob[0]
}

// Sample implements Sampler.
func (s *AliasSampler) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(s, g, ctx, r)
}

// Kind implements Sampler.
func (s *AliasSampler) Kind() Kind { return KindAlias }

// RPEntryBits implements Sampler.
func (s *AliasSampler) RPEntryBits() int { return 256 }
