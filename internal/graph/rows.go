package graph

import "sync/atomic"

// Access is how much of each row a reader's sampler takes.
type Access uint8

const (
	// AccessSlot: the degree and one drawn slot (uniform draws by index,
	// alias draws from the sampler's own store). A cold row stays encoded
	// and the reader decodes the one slot with Tiered.ColdEntryAt.
	AccessSlot Access = iota
	// AccessRow: the whole neighbor row.
	AccessRow
	// AccessWeights: the whole neighbor row and its weights.
	AccessWeights
)

// Place is where a vertex's row lives.
type Place uint8

const (
	// InArena: entries [off, off+deg) of the view's uncompressed arena
	// (Arena): the CSR's Col, or a tiered store's hot arena.
	InArena Place = iota
	// InCold: encoded at byte offset off of the tiered store's cold arena.
	InCold
	// InOverlay: the snapshot's merged row (Locate leaves off and deg 0).
	InOverlay
)

// Rows resolves where a vertex's row lives for one serving view of a
// graph. The order is fixed: a snapshot's overlay row when the vertex is
// dirty for the snapshot's epoch, then a tiered store's hot arena, then
// its cold arena, then the flat CSR's Col. Every form holds the same
// content as the CSR the view serves, so readers never branch on where a
// row came from — only on whether a cold row was left encoded.
//
// A Rows value is immutable and safe for concurrent use; the decode
// buffers belong to the readers (RowBuf).
type Rows struct {
	g    *CSR
	t    *Tiered
	snap *Snapshot
	// Locate's inputs, held directly so that it inlines: the snapshot's
	// dirty bitset (nil when there is no overlay row), the tiered
	// store's locators (nil when untiered) and the CSR's row pointers.
	dirty  []uint64
	loc    []uint64
	rowPtr []int64
}

// NewRows returns the resolver for g served through t and snap, either
// of which may be nil. t must be built over g, and snap must be a
// snapshot of g.
func NewRows(g *CSR, t *Tiered, snap *Snapshot) *Rows {
	rs := &Rows{g: g, t: t, snap: snap, rowPtr: g.RowPtr}
	if t != nil {
		rs.loc = t.loc
	}
	if snap != nil && len(snap.rows) > 0 {
		rs.dirty = snap.dirty
	}
	return rs
}

// Flat reports whether every row lives in the CSR's Col: no tiered store
// and no snapshot.
func (rs *Rows) Flat() bool { return rs.t == nil && rs.snap == nil }

// Tiered returns the tiered store rows resolve through, or nil.
func (rs *Rows) Tiered() *Tiered { return rs.t }

// Arena returns the view's uncompressed arena and its weights (nil when
// unweighted): the tiered store's hot arena, or the CSR's Col.
func (rs *Rows) Arena() ([]VertexID, []float32) {
	if rs.t != nil {
		return rs.t.hotCol, rs.t.hotW
	}
	return rs.g.Col, rs.g.Weights
}

// Locate is the row-location decision for v: where its row lives, its
// offset there and its degree. It is small enough to inline, so a Row
// Access loop can place the rows a slot reader needs without a call per
// row. A dirty bit set by a later epoch also reads InOverlay, whose row
// MergedRow then takes from the base, this epoch's truth.
func (rs *Rows) Locate(v VertexID) (off int64, deg int32, at Place) {
	if rs.dirty != nil && atomic.LoadUint64(&rs.dirty[v>>6])&(1<<(v&63)) != 0 {
		return 0, 0, InOverlay
	}
	if rs.loc == nil {
		lo := rs.rowPtr[v]
		return lo, int32(rs.rowPtr[v+1] - lo), InArena
	}
	p := rs.loc[v]
	return int64(p >> locOffShift), int32(p >> locDegShift & locDegMask), InCold - Place(p&locArenaBit)
}

// RowRef is one resolved row.
type RowRef struct {
	// Row is the neighbor row: an overlay row, a slice of the hot arena
	// or of Col, or the reader's decode buffer. It is nil only for a
	// cold row resolved under AccessSlot.
	Row []VertexID
	// Wts is the weight row parallel to Row under AccessWeights on a
	// weighted graph, nil otherwise.
	Wts []float32
	// Off is the row's offset where Locate placed it: in the arena, or in
	// bytes of the cold arena (what Tiered.ColdEntryAt takes).
	Off int64
	// Deg is the out-degree; 0 means the walk ends here.
	Deg int32
}

// RowBuf is the decode scratch one reader owns: a cohort lane or a
// Walker. Cold rows decode into its current buffer; a reader that keeps
// the row it stood on one hop earlier calls Swap as it moves, so that row
// moves to the spare buffer and the next decode cannot overwrite it.
type RowBuf struct {
	row, spare []VertexID
	wts        []float32
}

// Swap exchanges the current and spare row buffers.
func (b *RowBuf) Swap() { b.row, b.spare = b.spare, b.row }

// Bytes is the buffers' capacity in bytes.
func (b *RowBuf) Bytes() int64 {
	return int64(cap(b.row)+cap(b.spare)+cap(b.wts)) * 4
}

// Resolve returns v's row where Locate places it, decoding a cold row
// into buf's current buffer unless acc is AccessSlot. The decoded row
// stays valid until the next Resolve into the same buffer. Each buffer
// grows once, to the store's largest cold row.
func (rs *Rows) Resolve(v VertexID, buf *RowBuf, acc Access) RowRef {
	off, deg, at := rs.Locate(v)
	end := off + int64(deg)
	wantW := acc == AccessWeights && rs.g.Weighted()
	switch at {
	case InOverlay:
		row, wts := rs.snap.MergedRow(v)
		if !wantW {
			wts = nil
		}
		return RowRef{Row: row, Wts: wts, Deg: int32(len(row))}
	case InCold:
		if deg == 0 || acc == AccessSlot {
			return RowRef{Off: off, Deg: deg}
		}
		row, wts := rs.t.DecodeRowInto(v, buf.row, buf.wts, wantW)
		buf.row = row
		if wantW {
			buf.wts = wts
		}
		return RowRef{Row: row, Wts: wts, Off: off, Deg: deg}
	}
	col, wts := rs.Arena()
	r := RowRef{Row: col[off:end], Off: off, Deg: deg}
	if wantW {
		r.Wts = wts[off:end]
	}
	return r
}
