package sampling

import (
	"math"
	"runtime"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// storeTestGraph returns a weighted RMAT graph big enough to exercise the
// parallel builder's range partitioning and hub rows.
func storeTestGraph(t testing.TB, scale int) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	return g
}

// TestAliasStoreMatchesPerVertexTables pins the flat arena representation
// to the reference per-vertex construction: for every vertex, the packed
// row must draw byte-identically to a standalone AliasTable built from
// the same weight row on the same RNG stream.
func TestAliasStoreMatchesPerVertexTables(t *testing.T) {
	g := storeTestGraph(t, 9)
	s, err := NewAliasSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices; v++ {
		id := graph.VertexID(v)
		ws := g.NeighborWeights(id)
		if len(ws) == 0 {
			if got := s.DrawAt(id, rng.New(1)); got != -1 {
				t.Fatalf("vertex %d: zero-degree DrawAt = %d, want -1", v, got)
			}
			continue
		}
		tab, err := NewAliasTable(ws)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := rng.New(uint64(v)), rng.New(uint64(v))
		for i := 0; i < 32; i++ {
			want := tab.Draw(r1)
			got := s.DrawAt(id, r2)
			if got != want {
				t.Fatalf("vertex %d draw %d: flat store %d, per-vertex table %d", v, i, got, want)
			}
		}
	}
}

// TestAliasStoreWorkerCountInvariant asserts the arenas are identical at
// every worker count — the parallel build must be deterministic.
func TestAliasStoreWorkerCountInvariant(t *testing.T) {
	g := storeTestGraph(t, 9)
	ref, err := NewAliasSamplerWorkers(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		s, err := NewAliasSamplerWorkers(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.prob {
			if s.prob[i] != ref.prob[i] || s.alias[i] != ref.alias[i] {
				t.Fatalf("workers=%d: arena slot %d differs (prob %v vs %v, alias %d vs %d)",
					workers, i, s.prob[i], ref.prob[i], s.alias[i], ref.alias[i])
			}
		}
		for v := range ref.loc {
			if s.loc[v] != ref.loc[v] {
				t.Fatalf("workers=%d: locator %d differs", workers, v)
			}
		}
	}
}

// TestAliasStoreGoodnessOfFit chi-squares the flat store's draws against
// the exact edge-weight distribution on a weighted graph, for a spread of
// vertices including the highest-degree hub.
func TestAliasStoreGoodnessOfFit(t *testing.T) {
	g := storeTestGraph(t, 8)
	s, err := NewAliasSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the hub plus a few arbitrary mid-degree vertices.
	hub := graph.VertexID(0)
	for v := 0; v < g.NumVertices; v++ {
		if g.Degree(graph.VertexID(v)) > g.Degree(hub) {
			hub = graph.VertexID(v)
		}
	}
	vertices := []graph.VertexID{hub}
	for v := 0; v < g.NumVertices && len(vertices) < 5; v++ {
		if d := g.Degree(graph.VertexID(v)); d >= 2 && d <= 10 {
			vertices = append(vertices, graph.VertexID(v))
		}
	}
	for _, v := range vertices {
		ws := g.NeighborWeights(v)
		total := 0.0
		for _, w := range ws {
			total += float64(w)
		}
		probs := make([]float64, len(ws))
		for i, w := range ws {
			probs[i] = float64(w) / total
		}
		draws := 2000 * len(ws)
		if draws > 400000 {
			draws = 400000
		}
		counts := make([]int, len(ws))
		r := rng.New(uint64(v) + 1000)
		for i := 0; i < draws; i++ {
			counts[s.DrawAt(v, r)]++
		}
		// Conservative p=0.001 threshold: for k-1 degrees of freedom the
		// critical value is below k-1 + 4*sqrt(2(k-1)) for the sizes here.
		df := float64(len(ws) - 1)
		crit := df + 4*math.Sqrt(2*df)
		if df < 10 {
			crit = chi2Critical999[len(ws)-1]
		}
		if c := chi2(counts, probs, draws); c > crit {
			t.Fatalf("vertex %d (deg %d): chi2=%v > %v", v, len(ws), c, crit)
		}
	}
}

// TestAliasRejectsNonFiniteWeights pins the validation fix: +Inf used to
// pass the w > 0 test, poison the row total, and yield a NaN-filled table
// that silently drew garbage.
func TestAliasRejectsNonFiniteWeights(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for _, ws := range [][]float32{
		{1, inf, 2},
		{inf},
		{nan, 1},
		{1, 2, nan},
	} {
		if _, err := NewAliasTable(ws); err == nil {
			t.Errorf("NewAliasTable(%v) accepted non-finite weights", ws)
		}
	}
	// The graph-level builder must reject them too, naming the vertex.
	g := graph.SmallTestGraph()
	g.AttachWeights()
	g.Weights[1] = inf
	if _, err := NewAliasSampler(g); err == nil {
		t.Error("NewAliasSampler accepted a graph with an infinite weight")
	}
	g.Weights[1] = nan
	if _, err := NewAliasSampler(g); err == nil {
		t.Error("NewAliasSampler accepted a graph with a NaN weight")
	}
}

// TestAliasTableBytesTracked pins TableBytes to its exact value (12 bytes
// per arena slot, one slot per edge) — now tracked at build, not summed
// over V.
func TestAliasTableBytesTracked(t *testing.T) {
	g := storeTestGraph(t, 8)
	s, err := NewAliasSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(g.Col)) * 12; s.TableBytes() != want {
		t.Fatalf("TableBytes = %d, want %d", s.TableBytes(), want)
	}
	if want := int64(len(g.Col))*12 + int64(g.NumVertices)*8; s.MemoryFootprint() != want {
		t.Fatalf("MemoryFootprint = %d, want %d", s.MemoryFootprint(), want)
	}
}

// TestAliasStoreBuildAllocs pins the arena build's allocation count:
// O(1) beyond the three arenas and per-worker scratch, independent of
// graph size. The old per-vertex representation allocated 5+ objects per
// vertex (~100k for this graph).
func TestAliasStoreBuildAllocs(t *testing.T) {
	g := storeTestGraph(t, 11) // 2^11 vertices: old build was ~10^4 allocs
	workers := 2
	// Warm once so lazy runtime state doesn't bill the measured build.
	if _, err := NewAliasSamplerWorkers(g, workers); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := NewAliasSamplerWorkers(g, workers)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// 3 arenas + locator + bounds + error slot + per-worker scratch and
	// goroutine bookkeeping; 64 is an order of magnitude of headroom while
	// still catching any O(V) regression (this graph has 2^11 vertices).
	if allocs > 64 {
		t.Fatalf("build allocated %d objects, want O(1) (<= 64)", allocs)
	}
	if s.TableBytes() == 0 {
		t.Fatal("sanity: empty store")
	}
}

// TestAliasStoreTouchRow sanity-checks the Row Access prefetch helper:
// nonpanicking for every vertex, including zero-degree ones.
func TestAliasStoreTouchRow(t *testing.T) {
	g := storeTestGraph(t, 8)
	s, err := NewAliasSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	for v := 0; v < g.NumVertices; v++ {
		sink ^= s.TouchRow(graph.VertexID(v))
	}
	_ = sink
}

// BenchmarkSamplerBuild compares weighted-sampler preprocessing cost:
// serial-old reproduces the retired representation (one heap AliasTable
// per vertex, built serially — 5+ allocations per vertex), parallel-new
// is the flat arena store built by the degree-partitioned worker pool.
func BenchmarkSamplerBuild(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.Graph500(14, 16, 7))
	if err != nil {
		b.Fatal(err)
	}
	g.AttachWeights()
	b.Run("serial-old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tables := make([]*AliasTable, g.NumVertices)
			for v := 0; v < g.NumVertices; v++ {
				ws := g.NeighborWeights(graph.VertexID(v))
				if len(ws) == 0 {
					continue
				}
				tab, err := NewAliasTable(ws)
				if err != nil {
					b.Fatal(err)
				}
				tables[v] = tab
			}
			if tables[0] == nil && g.Degree(0) > 0 {
				b.Fatal("missing table")
			}
		}
	})
	b.Run("parallel-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewAliasSamplerWorkers(g, runtime.GOMAXPROCS(0))
			if err != nil {
				b.Fatal(err)
			}
			if s.TableBytes() == 0 {
				b.Fatal("empty store")
			}
		}
	})
	b.Run("serial-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewAliasSamplerWorkers(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			if s.TableBytes() == 0 {
				b.Fatal("empty store")
			}
		}
	})
}

// BenchmarkAliasStoreDraw measures the pointer-free draw path against a
// skewed row mix (the store version of BenchmarkAliasDraw).
func BenchmarkAliasStoreDraw(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.Graph500(12, 8, 3))
	if err != nil {
		b.Fatal(err)
	}
	g.AttachWeights()
	s, err := NewAliasSampler(g)
	if err != nil {
		b.Fatal(err)
	}
	// Cycle over vertices with edges.
	var vs []graph.VertexID
	for v := 0; v < g.NumVertices && len(vs) < 1024; v++ {
		if g.Degree(graph.VertexID(v)) > 0 {
			vs = append(vs, graph.VertexID(v))
		}
	}
	r := rng.New(1)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.DrawAt(vs[i%len(vs)], r)
	}
	_ = sink
}
