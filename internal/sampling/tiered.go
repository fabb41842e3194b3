package sampling

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// TieredAlias is the two-tier counterpart of AliasSampler, mirroring the
// graph store's split: hub alias rows stay pinned in flat prob/alias
// arenas (the PR 5 representation, byte for byte), while tail rows are
// stored compressed in one cold byte arena — probabilities as uint16
// fixed-point when the row quantizes exactly (with a per-row exactness
// fallback to raw float64 when it does not), alias indices as row-uniform
// truncated little-endian integers sized to the row's degree. Every cold
// row is O(1)-addressable, so a draw never decodes more than one
// probability and one alias entry.
//
// Draws are draw-for-draw identical to AliasSampler over the same graph:
// rows come out of the same Vose construction, the quantized encoding is
// used only when decoding reproduces the exact float64 probability, and
// the RNG consumption pattern (one Intn, one Float64) is unchanged. The
// store is immutable after construction and safe for concurrent use.
type TieredAlias struct {
	// loc[v] packs v's row location: offset(39) | degree(24) | hot(1).
	// Hot offsets index hotProb/hotAlias in entries; cold offsets index
	// cold in bytes.
	loc      []uint64
	hotProb  []float64
	hotAlias []int32
	cold     []byte

	// HotRows is the number of alias rows pinned in the flat arenas.
	HotRows int

	coldRows  int
	quantRows int
	coldEnt   int64 // entries stored cold
	budget    int64
	flatBytes int64 // the flat AliasSampler's arena bytes (12/entry)
}

// Tiered alias locator packing: offset(39) | degree(24) | hot(1). Degree
// keeps AliasSampler's 2^24 bound; 2^39 bytes of cold arena outruns any
// resident graph by orders of magnitude.
const (
	taHotBit   = 1
	taDegShift = 1
	taDegBits  = aliasDegBits
	taDegMask  = aliasDegMask
	taOffShift = taDegShift + taDegBits
	taMaxOff   = 1 << 39
)

// Cold alias row tag byte: bit 0 selects the probability encoding, bits
// 1-2 carry the alias entry width minus one.
const (
	taTagQuant    = 0x01
	taTagWidthSh  = 1
	taTagWidthMsk = 0x3
)

// quantProb returns p's uint16 fixed-point encoding and whether decoding
// it reproduces p exactly. 0xFFFF is reserved for p == 1 (the most common
// alias probability), so 65535/65536 falls back to the raw encoding.
func quantProb(p float64) (uint16, bool) {
	if p == 1 {
		return math.MaxUint16, true
	}
	t := p * 65536
	if t != math.Trunc(t) || t < 0 || t > 65534 {
		return 0, false
	}
	return uint16(t), true
}

// dequantProb inverts quantProb. Division by a power of two is exact, so
// a quantized row's probabilities compare bit-identically to the float64
// values the Vose construction produced.
func dequantProb(q uint16) float64 {
	if q == math.MaxUint16 {
		return 1
	}
	return float64(q) / 65536
}

// aliasWidth returns the byte width that holds every alias index of a
// row with the given degree (indices are < deg).
func aliasWidth(deg int) int {
	switch {
	case deg <= 1<<8:
		return 1
	case deg <= 1<<16:
		return 2
	default:
		return 3
	}
}

// NewTieredAlias builds a tiered alias store over the weighted graph g
// with the given hot-tier byte budget (negative pins nothing). The hot
// set follows the same policy as graph.NewTiered: rows in descending
// degree order, ties by vertex id, pinned until the budget is spent.
func NewTieredAlias(g *graph.CSR, budgetBytes int64) (*TieredAlias, error) {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	if !g.Weighted() {
		return nil, fmt.Errorf("sampling: alias sampler requires a weighted graph")
	}
	if int64(len(g.Col)) >= aliasMaxOff || (g.NumVertices > 0 && g.MaxDegree() > aliasDegMask) {
		return nil, fmt.Errorf("sampling: graph exceeds alias locator packing limits (%d edges, max degree %d)",
			len(g.Col), g.MaxDegree())
	}
	s := &TieredAlias{
		loc:       make([]uint64, g.NumVertices),
		budget:    budgetBytes,
		flatBytes: int64(len(g.Col)) * 12,
	}

	// Hot selection: descending degree prefix fit, 12 bytes per entry
	// (float64 prob + int32 alias), unpadded — alias rows are read once
	// per draw at a random slot, so cache-line alignment buys nothing.
	order := make([]graph.VertexID, g.NumVertices)
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	var entries int64
	for _, v := range order {
		deg := int64(g.Degree(v))
		if deg == 0 {
			break
		}
		if (entries+deg)*12 > budgetBytes {
			break
		}
		s.loc[v] = uint64(entries)<<taOffShift | uint64(deg)<<taDegShift | taHotBit
		entries += deg
		s.HotRows++
	}
	if s.HotRows > 0 {
		s.hotProb = make([]float64, entries)
		s.hotAlias = make([]int32, entries)
	}

	// Row construction: one Vose build per vertex into reusable scratch,
	// then placement — hot rows copy into the flat arenas, cold rows
	// encode into the byte arena.
	maxDeg := g.MaxDegree()
	probRow := make([]float64, maxDeg)
	aliasRow := make([]int32, maxDeg)
	var sc aliasScratch
	for v := 0; v < g.NumVertices; v++ {
		id := graph.VertexID(v)
		deg := g.Degree(id)
		if deg == 0 {
			if s.loc[v]&taHotBit == 0 {
				s.loc[v] = 0
			}
			continue
		}
		if err := buildAliasRow(probRow[:deg], aliasRow[:deg], g.NeighborWeights(id), &sc); err != nil {
			return nil, fmt.Errorf("sampling: vertex %d: %w", v, err)
		}
		if s.loc[v]&taHotBit != 0 {
			off := s.loc[v] >> taOffShift
			copy(s.hotProb[off:], probRow[:deg])
			copy(s.hotAlias[off:], aliasRow[:deg])
			continue
		}
		off := int64(len(s.cold))
		if off >= taMaxOff {
			return nil, fmt.Errorf("sampling: tiered alias cold arena exceeds %d bytes", int64(taMaxOff))
		}
		s.loc[v] = uint64(off)<<taOffShift | uint64(deg)<<taDegShift
		s.cold = appendColdAliasRow(s.cold, probRow[:deg], aliasRow[:deg])
		if s.cold[off]&taTagQuant != 0 {
			s.quantRows++
		}
		s.coldRows++
		s.coldEnt += int64(deg)
	}
	return s, nil
}

// appendColdAliasRow encodes one alias row: tag byte, probability
// payload (uint16 fixed-point when the whole row quantizes exactly, raw
// float64 otherwise), then row-uniform truncated alias indices.
func appendColdAliasRow(dst []byte, prob []float64, alias []int32) []byte {
	quant := true
	for _, p := range prob {
		if _, ok := quantProb(p); !ok {
			quant = false
			break
		}
	}
	w := aliasWidth(len(prob))
	tag := byte(w-1) << taTagWidthSh
	if quant {
		tag |= taTagQuant
	}
	dst = append(dst, tag)
	if quant {
		for _, p := range prob {
			q, _ := quantProb(p)
			dst = binary.LittleEndian.AppendUint16(dst, q)
		}
	} else {
		for _, p := range prob {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
		}
	}
	for _, a := range alias {
		v := uint32(a)
		switch w {
		case 1:
			dst = append(dst, byte(v))
		case 2:
			dst = append(dst, byte(v), byte(v>>8))
		default:
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16))
		}
	}
	return dst
}

// DrawAt returns a neighbor index of v distributed proportionally to v's
// edge weights, or -1 when v has no outgoing edges — draw-for-draw
// identical to AliasSampler.DrawAt over the same graph.
func (s *TieredAlias) DrawAt(v graph.VertexID, r *rng.Stream) int {
	p := s.loc[v]
	deg := int(p >> taDegShift & taDegMask)
	if deg == 0 {
		return -1
	}
	off := p >> taOffShift
	i := r.Intn(deg)
	if p&taHotBit != 0 {
		if r.Float64() < s.hotProb[off+uint64(i)] {
			return i
		}
		return int(s.hotAlias[off+uint64(i)])
	}
	b := s.cold[off:]
	tag := b[0]
	var pv float64
	probBytes := 2 * deg
	if tag&taTagQuant != 0 {
		pv = dequantProb(binary.LittleEndian.Uint16(b[1+2*i:]))
	} else {
		pv = math.Float64frombits(binary.LittleEndian.Uint64(b[1+8*i:]))
		probBytes = 8 * deg
	}
	if r.Float64() < pv {
		return i
	}
	w := int(tag>>taTagWidthSh&taTagWidthMsk) + 1
	ab := b[1+probBytes+i*w:]
	a := uint32(ab[0])
	if w > 1 {
		a |= uint32(ab[1]) << 8
	}
	if w > 2 {
		a |= uint32(ab[2]) << 16
	}
	return int(a)
}

// TouchRow loads v's locator word and the head of its row (hot arena
// slot or cold tag byte), returning mixed bits the caller must fold into
// a sink — the Row Access prefetch hook, mirroring
// AliasSampler.TouchRow.
func (s *TieredAlias) TouchRow(v graph.VertexID) uint64 {
	p := s.loc[v]
	deg := p >> taDegShift & taDegMask
	if deg == 0 {
		return p
	}
	off := p >> taOffShift
	if p&taHotBit != 0 {
		return p ^ math.Float64bits(s.hotProb[off])
	}
	return p ^ uint64(s.cold[off])
}

// AliasTierStats is a tiered alias store's per-tier accounting.
type AliasTierStats struct {
	HotRows, ColdRows int
	// QuantRows counts cold rows stored with uint16 fixed-point
	// probabilities; ExactRows took the float64 exactness fallback.
	QuantRows, ExactRows int
	HotBytes, ColdBytes  int64
	LocatorBytes         int64
	// ColdFlatBytes is what the cold rows occupy in the flat store, the
	// numerator of CompressionRatio.
	ColdFlatBytes    int64
	CompressionRatio float64
	// FlatBytes is the whole flat store's arena size (12 bytes/entry).
	FlatBytes int64
}

// Stats returns the store's per-tier accounting.
func (s *TieredAlias) Stats() AliasTierStats {
	st := AliasTierStats{
		HotRows:       s.HotRows,
		ColdRows:      s.coldRows,
		QuantRows:     s.quantRows,
		ExactRows:     s.coldRows - s.quantRows,
		HotBytes:      int64(len(s.hotProb))*8 + int64(len(s.hotAlias))*4,
		ColdBytes:     int64(len(s.cold)),
		LocatorBytes:  int64(len(s.loc)) * 8,
		ColdFlatBytes: s.coldEnt * 12,
		FlatBytes:     s.flatBytes,
	}
	if st.ColdBytes > 0 {
		st.CompressionRatio = float64(st.ColdFlatBytes) / float64(st.ColdBytes)
	}
	return st
}

// TableBytes reports the arena footprint across both tiers (the
// counterpart of AliasSampler.TableBytes).
func (s *TieredAlias) TableBytes() int64 {
	return int64(len(s.hotProb))*8 + int64(len(s.hotAlias))*4 + int64(len(s.cold))
}

// MemoryFootprint is TableBytes plus the per-vertex locator words.
func (s *TieredAlias) MemoryFootprint() int64 {
	return s.TableBytes() + int64(len(s.loc))*8
}

// Budget returns the hot-tier byte budget the store was built with.
func (s *TieredAlias) Budget() int64 { return s.budget }

// Sample implements Sampler.
func (s *TieredAlias) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(s, g, ctx, r)
}

// Kind implements Sampler.
func (s *TieredAlias) Kind() Kind { return KindAlias }

// RPEntryBits implements Sampler.
func (s *TieredAlias) RPEntryBits() int { return 256 }

// Propose implements StagedSampler: one draw from whichever tier holds
// the row, always final (the alias method's single-decision shape is
// tier-independent).
func (s *TieredAlias) Propose(_ *graph.CSR, ctx Context, _ Candidate, r *rng.Stream) Candidate {
	return Candidate{Index: s.DrawAt(ctx.Cur, r), Probes: 1, Final: true}
}

// Accept implements StagedSampler (never reached: proposals are final).
func (s *TieredAlias) Accept(*graph.CSR, Context, Candidate, *rng.Stream) bool { return true }
