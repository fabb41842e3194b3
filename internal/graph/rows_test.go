package graph

import (
	"reflect"
	"testing"
)

// rowsTestView builds a weighted directed RMAT graph, a tiered store that
// pins some rows hot and leaves the rest cold, and a snapshot whose dirty
// rows include a grown sink and an emptied row. want is the snapshot
// materialized as a plain CSR: the content every resolver over the
// snapshot must serve.
func rowsTestView(t *testing.T) (g *CSR, ts *Tiered, snap *Snapshot, want *CSR) {
	t.Helper()
	cfg := Balanced(9, 8, 11)
	cfg.Directed = true
	rmat, err := GenerateRMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every 37th vertex keeps no out-edges: base rows of degree zero.
	var edges []Edge
	for v := 0; v < rmat.NumVertices; v++ {
		for _, d := range rmat.Neighbors(VertexID(v)) {
			if v%37 != 0 {
				edges = append(edges, Edge{Src: VertexID(v), Dst: d})
			}
		}
	}
	if g, err = Build(rmat.NumVertices, edges, true); err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	if ts, err = NewTiered(g, 1<<13); err != nil {
		t.Fatal(err)
	}
	const sink = 37     // grows a row in the overlay
	full := VertexID(1) // a short cold row the overlay empties
	for g.Degree(full) < 3 || ts.IsHot(full) {
		full++
	}
	vg := NewVersioned(g)
	if err := vg.InsertEdges([]Edge{{Src: sink, Dst: 3}, {Src: sink, Dst: 1}, {Src: 5, Dst: 7}}); err != nil {
		t.Fatal(err)
	}
	var del []Edge
	for _, d := range g.Neighbors(full) {
		del = append(del, Edge{Src: full, Dst: d})
	}
	if err := vg.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	snap = vg.Snapshot()
	return g, ts, snap, snap.materialize()
}

// TestRowsResolveEveryForm checks the resolver against the CSR it serves:
// for every vertex — hot, cold, overlay-dirty and zero-degree rows, over
// the flat CSR, the tiered store, a snapshot and both — the resolved row
// and weights equal Neighbors and NeighborWeights under each access, and
// a cold row left encoded decodes slot by slot to the same entries.
func TestRowsResolveEveryForm(t *testing.T) {
	g, ts, snap, merged := rowsTestView(t)
	for _, tc := range []struct {
		name string
		t    *Tiered
		snap *Snapshot
	}{{"flat", nil, nil}, {"tiered", ts, nil}, {"snapshot", nil, snap}, {"tiered+snapshot", ts, snap}} {
		t.Run(tc.name, func(t *testing.T) {
			want := g
			if tc.snap != nil {
				want = merged
			}
			rs := NewRows(g, tc.t, tc.snap)
			if rs.Flat() != (tc.t == nil && tc.snap == nil) {
				t.Fatalf("Flat() = %v", rs.Flat())
			}
			var buf RowBuf
			var hot, cold, dirty, empty int
			for v := 0; v < g.NumVertices; v++ {
				id := VertexID(v)
				nbrs, wts := want.Neighbors(id), want.NeighborWeights(id)
				isDirty := tc.snap != nil && tc.snap.rows[id] != nil
				switch {
				case len(nbrs) == 0:
					empty++
				case isDirty:
					dirty++
				case tc.t != nil && tc.t.IsHot(id):
					hot++
				case tc.t != nil:
					cold++
				}
				for _, acc := range []Access{AccessSlot, AccessRow, AccessWeights} {
					r := rs.Resolve(id, &buf, acc)
					if int(r.Deg) != len(nbrs) {
						t.Fatalf("vertex %d access %d: degree %d, want %d", v, acc, r.Deg, len(nbrs))
					}
					if len(nbrs) == 0 {
						continue
					}
					if r.Row == nil {
						if acc != AccessSlot || tc.t == nil || tc.t.IsHot(id) || isDirty {
							t.Fatalf("vertex %d access %d: row left unresolved", v, acc)
						}
						for i := range nbrs {
							if got := tc.t.ColdEntryAt(id, r.Off, int32(i)); got != nbrs[i] {
								t.Fatalf("vertex %d slot %d: %d, want %d", v, i, got, nbrs[i])
							}
						}
						continue
					}
					if !reflect.DeepEqual(r.Row, nbrs) {
						t.Fatalf("vertex %d access %d: row %v, want %v", v, acc, r.Row, nbrs)
					}
					if acc != AccessWeights {
						if r.Wts != nil {
							t.Fatalf("vertex %d access %d: weights served unasked", v, acc)
						}
					} else if !reflect.DeepEqual(r.Wts, wts) {
						t.Fatalf("vertex %d: weights %v, want %v", v, r.Wts, wts)
					}
				}
			}
			if empty == 0 || (tc.t != nil && (hot == 0 || cold == 0)) || (tc.snap != nil && dirty < 2) {
				t.Fatalf("forms covered: hot %d cold %d dirty %d empty %d", hot, cold, dirty, empty)
			}
		})
	}
}

// TestRowBufKeepsPrevRow drives a reader the way a cohort lane and a
// Walker use their buffers: each hop resolves the current row into the
// buffer, and Swap hands it to the spare as the next hop's previous row.
// On an all-cold store every row is a decode, so each one lands in the
// buffer the previous row just left — and must never change that row.
func TestRowBufKeepsPrevRow(t *testing.T) {
	g, err := GenerateRMAT(Balanced(9, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	ts, err := NewTiered(g, -1)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRows(g, ts, nil)
	var buf RowBuf
	var prev []VertexID
	prevV := VertexID(0)
	for step := 0; step < 4*g.NumVertices; step++ {
		v := VertexID(step * 7919 % g.NumVertices)
		r := rs.Resolve(v, &buf, AccessWeights)
		if !reflect.DeepEqual(r.Row, g.Neighbors(v)) && (r.Deg != 0 || len(g.Neighbors(v)) != 0) {
			t.Fatalf("step %d: row of %d differs", step, v)
		}
		if prev != nil && !reflect.DeepEqual(prev, g.Neighbors(prevV)) {
			t.Fatalf("step %d: decoding %d changed the previous row of %d", step, v, prevV)
		}
		if r.Deg == 0 {
			continue // a walk ends on a sink
		}
		prev, prevV = r.Row, v
		buf.Swap()
	}
	if max := int64(3*ts.MaxColdDegree) * 4; buf.Bytes() > max {
		t.Fatalf("buffers hold %d B, want at most %d", buf.Bytes(), max)
	}
}
