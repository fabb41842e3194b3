package graph

import (
	"testing"

	"ridgewalker/internal/rng"
)

// checkFencesRow compares Contains with HasEdge on row v of g for every
// neighbor, each neighbor ±1, 0, V−1 and a few random ids.
func checkFencesRow(t *testing.T, g *CSR, f *Fences, v VertexID, r *rng.Stream) {
	t.Helper()
	lo, hi := g.RowPtr[v], g.RowPtr[v+1]
	probe := func(x VertexID) {
		if got, want := f.Contains(lo, hi, x), g.HasEdge(v, x); got != want {
			t.Fatalf("row %d [%d, %d) x=%d: Contains %v, HasEdge %v", v, lo, hi, x, got, want)
		}
	}
	for _, x := range g.Col[lo:hi] {
		probe(x)
		probe(x - 1)
		probe(x + 1)
	}
	probe(0)
	probe(VertexID(g.NumVertices - 1))
	for i := 0; i < 4; i++ {
		probe(VertexID(r.Intn(g.NumVertices)))
	}
}

// TestFencesContainsMatchesHasEdge pins the fence search to the CSR's
// binary search on every row of three RMAT graphs and on hand-built rows
// at the level boundaries (degrees 16^k and 16^k ± 1), each starting at
// an unaligned Col offset, one with duplicate entries, and one row that
// spans all of Col.
func TestFencesContainsMatchesHasEdge(t *testing.T) {
	r := rng.New(17)
	for _, scale := range []int{6, 10, 14} {
		g, err := GenerateRMAT(Graph500(scale, 16, uint64(scale)))
		if err != nil {
			t.Fatal(err)
		}
		f := NewFences(g)
		for v := 0; v < g.NumVertices; v++ {
			checkFencesRow(t, g, f, VertexID(v), r)
		}
	}

	// Hand-built rows: a 7-entry filler row first, so no row starts on a
	// cache line, then rows whose values restart low, so entries outside
	// a row are not sorted against it.
	const n = 20000
	degs := []int{0, 1, 16, 17, 255, 256, 257, 4095, 4096, 4097}
	rowPtr := []int64{0}
	var col []VertexID
	addRow := func(deg int, dup bool) {
		v := VertexID(r.Intn(8))
		for i := 0; i < deg; i++ {
			col = append(col, v)
			if dup {
				v += VertexID(r.Intn(2)) // repeats about every other entry
			} else {
				v += 1 + VertexID(r.Intn(3)) // gaps, so ±1 probes miss
			}
		}
		rowPtr = append(rowPtr, int64(len(col)))
	}
	addRow(7, false)
	for _, d := range degs {
		addRow(d, false)
	}
	addRow(4097, true)
	g := &CSR{NumVertices: n, RowPtr: make([]int64, n+1), Col: col}
	copy(g.RowPtr, rowPtr)
	for v := len(rowPtr); v <= n; v++ {
		g.RowPtr[v] = int64(len(col))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	f := NewFences(g)
	for v := 0; v < len(rowPtr)-1; v++ {
		checkFencesRow(t, g, f, VertexID(v), r)
	}

	// One row spanning all of Col, so the search starts at the top level.
	rowPtr, col = []int64{0}, nil
	addRow(70000, true)
	whole := &CSR{NumVertices: n, RowPtr: make([]int64, n+1), Col: col}
	for v := 1; v <= n; v++ {
		whole.RowPtr[v] = int64(len(col))
	}
	fw := NewFences(whole)
	if len(fw.lv) < 5 {
		t.Fatalf("%d levels over %d entries, want >= 5", len(fw.lv), len(col))
	}
	checkFencesRow(t, whole, fw, 0, r)
}

// fuzzRows decodes fuzz bytes into sorted rows: a 0xff byte ends a row,
// and any other byte b appends (b&15)+1 entries, each b>>4 above the last
// (a zero step repeats the entry). Unsorted filler separates the rows.
func fuzzRows(data []byte) (col []VertexID, bounds [][2]int64) {
	filler := func(k int) {
		for i := 0; i < k; i++ {
			col = append(col, VertexID(1000-7*i))
		}
	}
	filler(len(data) % 13)
	start, v := len(col), VertexID(0)
	for _, b := range data {
		if b == 0xff {
			bounds = append(bounds, [2]int64{int64(start), int64(len(col))})
			filler(int(v) % 11)
			start, v = len(col), VertexID(b%5)
			continue
		}
		for i := 0; i <= int(b&15); i++ {
			col = append(col, v)
			v += VertexID(b >> 4)
		}
	}
	bounds = append(bounds, [2]int64{int64(start), int64(len(col))})
	filler(3)
	return col, bounds
}

// FuzzFencesContains checks Contains against the row's value set on
// rows decoded from the fuzz bytes.
func FuzzFencesContains(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0xff, 0x2f})
	f.Add([]byte{0x10, 0x0f, 0x3a, 0xff, 0x00})
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte(0x1f + i%3*0x10)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		col, bounds := fuzzRows(data)
		fc := NewFences(&CSR{Col: col})
		for _, bd := range bounds {
			lo, hi := bd[0], bd[1]
			row := col[lo:hi]
			in := make(map[VertexID]bool, len(row))
			for _, y := range row {
				in[y] = true
			}
			probe := func(x VertexID) {
				if got, want := fc.Contains(lo, hi, x), in[x]; got != want {
					t.Fatalf("row [%d, %d) of %d x=%d: Contains %v, want %v", lo, hi, len(col), x, got, want)
				}
			}
			for _, x := range row {
				probe(x)
				probe(x - 1)
				probe(x + 1)
			}
			probe(0)
			probe(^VertexID(0))
		}
	})
}
