package graph

// fenceFan is the fence index's fan-out: 16 four-byte keys fill one
// 64-byte cache line.
const fenceFan = 16

// Fences is a static 16-ary search index over a CSR's Col array, for
// membership probes of one sorted neighbor row: Contains(lo, hi, x)
// reports whether x occurs in Col[lo:hi] in about log₁₆(hi−lo) dependent
// cache-line touches, where a binary search of the row takes about
// log₂(hi−lo) − 4.
//
// Level 0 is Col itself, and level k ≥ 1 holds Col[p] for every p that
// is a multiple of 16^k: lv[k][j] = Col[j·16^k], built as every 16th key
// of level k−1 while that level has more than 16 keys. No per-row
// locator is needed: a row's keys at level k are the contiguous sorted
// run lv[k][⌈lo/16^k⌉ … ⌊(hi−1)/16^k⌋], and below a chosen fence the next
// level's keys are 16 consecutive entries — one line, since every level
// starts at a multiple of 16 entries of one allocation. The index costs
// about len(Col)/15 × 4 bytes. A Fences is immutable and safe for
// concurrent use.
type Fences struct {
	g  *CSR
	lv [][]VertexID
	// bytes is the size of levels 1 and up (level 0 is the graph's Col).
	bytes int64
}

// NewFences builds the fence index over g's Col.
func NewFences(g *CSR) *Fences {
	total := 0
	for n := len(g.Col); n > fenceFan; {
		n = (n + fenceFan - 1) / fenceFan
		total += (n + fenceFan - 1) &^ (fenceFan - 1)
	}
	f := &Fences{g: g, lv: [][]VertexID{g.Col}, bytes: int64(total) * 4}
	keys := make([]VertexID, total)
	for below := g.Col; len(below) > fenceFan; {
		n := (len(below) + fenceFan - 1) / fenceFan
		level := keys[:n:n]
		keys = keys[(n+fenceFan-1)&^(fenceFan-1):]
		for j := range level {
			level[j] = below[j*fenceFan]
		}
		f.lv = append(f.lv, level)
		below = level
	}
	return f
}

// Graph returns the CSR the index was built over.
func (f *Fences) Graph() *CSR { return f.g }

// Bytes reports the index's resident size beyond the graph's own Col
// (0 for a nil index).
func (f *Fences) Bytes() int64 {
	if f == nil {
		return 0
	}
	return f.bytes
}

// Contains reports whether x occurs in the sorted run Col[lo:hi] — for a
// row's bounds, whether the row has an edge to x. It answers exactly as
// CSR.HasEdge does, duplicate entries included.
//
// The search starts at the lowest level where the row spans at most 16
// keys. At each level it finds the last key in the window that is ≤ x,
// which narrows the window to the stride below that fence, or to the
// row's unaligned head when every key is > x. A search of ≤ 16 Col
// entries finishes. Within a level the search is a masked binary search
// over one or two cache lines: a handful of instructions per level, so
// the probes of neighbouring lanes overlap in the out-of-order window
// (counting every key of the window measured slower). Every window
// stays inside [lo, hi): entries outside the row belong to other rows
// and are not sorted against it.
func (f *Fences) Contains(lo, hi int64, x VertexID) bool {
	k, top := 0, len(f.lv)-1
	for k < top && (hi-1)>>(4*k)-(lo-1)>>(4*k) > fenceFan {
		k++
	}
	xi := int64(x)
	for a, b := lo, hi; ; k-- {
		s := uint(4 * k)
		keys := f.lv[k]
		// Keys j in [m0, m1) sit at Col positions j<<s inside [a, b).
		m0, m1 := (a-1)>>s+1, (b-1)>>s+1
		if m0 == m1 {
			// No key of this level in the window: an empty row at level
			// 0, otherwise a head shorter than this level's stride.
			if k == 0 {
				return false
			}
			continue
		}
		// The last key <= x, or m0 when there is none. The step is
		// masked, not branched on.
		j, m := m0, m1-m0
		for m > 1 {
			half := m >> 1
			j += half &^ ((xi - int64(keys[j+half])) >> 63)
			m -= half
		}
		switch {
		case k == 0:
			return keys[j] == x
		case keys[j] <= x:
			a = j << s
			b = min(b, a+1<<s)
		default:
			b = m0 << s
		}
	}
}
