package graph

import (
	"reflect"
	"testing"
)

// starGraph builds a hub (vertex 0) pointing at every other vertex, plus
// a sparse chain among the leaves, giving one obvious hub row.
func starGraph(t *testing.T, n int) *CSR {
	t.Helper()
	var edges []Edge
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{Src: 0, Dst: VertexID(v)})
		edges = append(edges, Edge{Src: VertexID(v), Dst: VertexID((v % (n - 1)) + 1)})
	}
	g, err := Build(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rowOf reads vertex v's row (and weights) through a tiered store the way
// an engine would: hot rows from the arena, cold rows decoded.
func rowOf(t *Tiered, v VertexID) ([]VertexID, []float32) {
	off, deg, hot := t.Locate(v)
	if hot {
		col := t.hotCol[off : off+int64(deg)]
		if t.hotW != nil {
			return col, t.hotW[off : off+int64(deg)]
		}
		return col, nil
	}
	return t.DecodeRowInto(v, nil, nil, t.Graph().Weighted())
}

// TestTieredContentIdentity is the load-bearing property: every row read
// through the store — hot or decoded cold, neighbors and weights — must
// be exactly the parent CSR's row, for a sweep of hot budgets from
// all-cold to all-hot.
func TestTieredContentIdentity(t *testing.T) {
	g, err := GenerateRMAT(Graph500(10, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	for _, budget := range []int64{0, 1 << 12, 1 << 16, 1 << 40} {
		ts, err := NewTiered(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices; v++ {
			id := VertexID(v)
			col, wts := rowOf(ts, id)
			want := g.Neighbors(id)
			if len(want) == 0 {
				if len(col) != 0 {
					t.Fatalf("budget %d vertex %d: got %d entries, want empty", budget, v, len(col))
				}
				continue
			}
			if !reflect.DeepEqual(col, want) {
				t.Fatalf("budget %d vertex %d: tiered row differs from CSR", budget, v)
			}
			if !reflect.DeepEqual(wts, g.NeighborWeights(id)) {
				t.Fatalf("budget %d vertex %d: tiered weights differ from CSR", budget, v)
			}
		}
	}
}

// TestTieredColdEntryAt checks single-slot access against the CSR for
// every slot of every cold row — shallow scan-from-head rows and deep
// fixed-stride rows both (scale 11 at edge factor 16 puts hubs well past
// strideMinDeg).
func TestTieredColdEntryAt(t *testing.T) {
	g, err := GenerateRMAT(Graph500(11, 16, 13))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTiered(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep := false
	for v := 0; v < g.NumVertices; v++ {
		id := VertexID(v)
		off, deg, hot := ts.Locate(id)
		if hot {
			t.Fatalf("vertex %d hot in an all-cold store", v)
		}
		if deg > strideMinDeg {
			deep = true
		}
		want := g.Neighbors(id)
		for i := int32(0); i < deg; i++ {
			if got := ts.ColdEntryAt(id, off, i); got != want[i] {
				t.Fatalf("vertex %d slot %d: got %d want %d", v, i, got, want[i])
			}
		}
	}
	if !deep {
		t.Fatal("graph has no deep rows; the strided layout went unexercised")
	}
}

// TestTieredBudgetPolicy pins the auto placement: hot bytes within
// budget, hot set = a prefix of the descending-degree order, zero budget
// pins nothing, huge budget pins every nonempty row.
func TestTieredBudgetPolicy(t *testing.T) {
	g, err := GenerateRMAT(Graph500(10, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1 << 14)
	ts, err := NewTiered(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	s := ts.Stats()
	if s.HotBytes > budget {
		t.Fatalf("hot bytes %d exceed budget %d", s.HotBytes, budget)
	}
	if s.HotRows == 0 {
		t.Fatal("16KiB budget pinned no hub rows")
	}
	// Every hot row's degree must be >= every cold (nonempty) row's
	// degree... up to the prefix-fit boundary row. Check the weaker but
	// exact invariant: min hot degree >= max cold degree is not required
	// (prefix fit can skip nothing), so with uniform tie-breaking the
	// boundary is a single degree value: no cold row may be strictly
	// larger than the smallest hot row.
	minHot, maxCold := 1<<30, 0
	for v := 0; v < g.NumVertices; v++ {
		d := g.Degree(VertexID(v))
		if d == 0 {
			continue
		}
		if ts.IsHot(VertexID(v)) {
			if d < minHot {
				minHot = d
			}
		} else if d > maxCold {
			maxCold = d
		}
	}
	if maxCold > minHot {
		t.Fatalf("placement not hub-first: cold degree %d > hot degree %d", maxCold, minHot)
	}

	none, err := NewTiered(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if none.HotRows != 0 || len(none.hotCol) != 0 {
		t.Fatalf("zero budget pinned %d rows", none.HotRows)
	}
	all, err := NewTiered(g, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if st := all.Stats(); st.ColdRows != 0 || st.ColdBytes != 0 {
		t.Fatalf("unbounded budget left %d cold rows", st.ColdRows)
	}
}

// TestTieredCompression pins the capacity claim at test scale: the cold
// arena of an all-cold store must be at least 2x smaller than the flat
// row storage, on both unweighted and weighted (uint8-exact) graphs.
func TestTieredCompression(t *testing.T) {
	g, err := GenerateRMAT(Graph500(12, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, weighted := range []bool{false, true} {
		if weighted {
			g.AttachWeights()
		}
		ts, err := NewTiered(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := ts.Stats()
		if s.ColdFlatBytes != s.FlatBytes {
			t.Fatalf("all-cold store: cold flat bytes %d != flat bytes %d", s.ColdFlatBytes, s.FlatBytes)
		}
		if s.CompressionRatio < 2 {
			t.Fatalf("weighted=%v: compression ratio %.2f < 2x (cold %d flat %d)",
				weighted, s.CompressionRatio, s.ColdBytes, s.ColdFlatBytes)
		}
	}
}

// TestTieredTouchRow makes sure the prefetch hook never faults across
// tiers and degrees.
func TestTieredTouchRow(t *testing.T) {
	g := starGraph(t, 128)
	ts, err := NewTiered(g, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	for v := 0; v < g.NumVertices; v++ {
		sink ^= ts.TouchRow(VertexID(v))
	}
	_ = sink
}

// TestAcquireTiered covers the cross-session cache: same (graph, budget)
// shares one store, different budgets do not, refcounts drop to eviction.
func TestAcquireTiered(t *testing.T) {
	g := starGraph(t, 64)
	a, err := AcquireTiered(g, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AcquireTiered(g, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store() != b.Store() {
		t.Fatal("same key must share one tiered store")
	}
	if n := TieredRefs(g, 1<<12); n != 2 {
		t.Fatalf("refs = %d, want 2", n)
	}
	c, err := AcquireTiered(g, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	if c.Store() == a.Store() {
		t.Fatal("different budgets must not share a store")
	}
	a.Release()
	a.Release() // double release is a no-op
	b.Release()
	c.Release()
	if n := TieredRefs(g, 1<<12); n != 0 {
		t.Fatalf("refs after release = %d, want 0", n)
	}
}

// TestAutoMemoryBudget pins the auto policy's clamps: on graphs where
// the DefaultHubArenaBytes floor would pin everything hot, the floor
// drops to a quarter of the flat bytes so a cold tail always remains.
func TestAutoMemoryBudget(t *testing.T) {
	small := starGraph(t, 64)
	if b, want := AutoMemoryBudget(small), int64(len(small.Col))*4/4; b != want {
		t.Fatalf("small graph auto budget %d, want flat/4 = %d", b, want)
	}
	g, err := GenerateRMAT(Graph500(12, 16, 7))
	if err != nil {
		t.Fatal(err)
	}
	flat := int64(len(g.Col)) * 4
	want := flat / 8
	floor := int64(DefaultHubArenaBytes)
	if flat/4 < floor {
		floor = flat / 4
	}
	if want < floor {
		want = floor
	}
	if b := AutoMemoryBudget(g); b != want {
		t.Fatalf("auto budget %d, want %d", b, want)
	}
	if b := AutoMemoryBudget(g); b >= flat {
		t.Fatalf("auto budget %d not below flat bytes %d", b, flat)
	}
}
