package sampling

import (
	"strings"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// TestRegistryVersionKeyAfterAttachWeights is the stale-sampler
// regression test: AttachWeights revises a CSR in place, and before the
// version dimension was added to the registry key, a sampler built over
// the pre-revision graph kept being served for the post-revision one.
// Now a revision makes stale acquisitions miss.
func TestRegistryVersionKeyAfterAttachWeights(t *testing.T) {
	g := registryTestGraph(t)
	reg := NewRegistry()
	spec := Spec{Kind: KindAlias, Weighted: true}
	old, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	verBefore := g.Version()
	g.AttachWeights() // in-place revision: same pointer, new version
	if g.Version() == verBefore {
		t.Fatal("AttachWeights did not bump the CSR version")
	}

	fresh, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Sampler() == old.Sampler() {
		t.Fatal("revised graph served the stale pre-revision sampler")
	}
	// Both entries are live — the old borrow keeps its (now unreachable)
	// entry, the new version gets its own.
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (stale + fresh entries)", reg.Len())
	}
	if reg.Refs(g, spec) != 1 {
		t.Fatalf("Refs at current version = %d, want 1", reg.Refs(g, spec))
	}
	old.Release()
	fresh.Release()
	if reg.Len() != 0 {
		t.Fatalf("entries leaked after release: Len = %d", reg.Len())
	}
}

// versionedSamplingFixture mutates a weighted graph and returns the
// wrapper plus a dirty snapshot.
func versionedSamplingFixture(t testing.TB) (*graph.CSR, *graph.Versioned, *graph.Snapshot) {
	t.Helper()
	g := registryTestGraph(t)
	vg := graph.NewVersioned(g)
	if err := vg.InsertEdges([]graph.Edge{{Src: 1, Dst: 9}, {Src: 1, Dst: 9}, {Src: 40, Dst: 3}, {Src: 200, Dst: 201}}); err != nil {
		t.Fatal(err)
	}
	if err := vg.DeleteEdges([]graph.Edge{{Src: 1, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	return g, vg, vg.Snapshot()
}

// TestAliasWithRebuiltRowsIncremental pins the incremental-maintenance
// contract structurally: a derived sampler shares the base arenas (no
// O(E) copy), its spill arenas hold exactly the dirty rows' merged
// degrees, and every draw — clean row or rebuilt row — is byte-identical
// to a cold build over the materialized graph.
func TestAliasWithRebuiltRowsIncremental(t *testing.T) {
	g, vg, snap := versionedSamplingFixture(t)
	base, err := NewAliasSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := base.WithRebuiltRows(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SharesArenasWith(base) {
		t.Fatal("derived sampler copied the base arenas")
	}
	wantSpill := 0
	for _, v := range snap.DirtyVertices() {
		wantSpill += snap.Degree(v)
	}
	if d.SpillEntries() != wantSpill {
		t.Fatalf("spill entries %d, want Σ dirty merged degrees %d", d.SpillEntries(), wantSpill)
	}
	if base.SpillEntries() != 0 {
		t.Fatal("base sampler grew spill arenas")
	}

	// Cold build over the materialized final graph: identical draws
	// everywhere, from identical RNG streams.
	final := vg.Compact()
	cold, err := NewAliasSampler(final)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices; v++ {
		r1, r2 := rng.New(uint64(v)+1), rng.New(uint64(v)+1)
		for i := 0; i < 32; i++ {
			got := d.DrawAt(graph.VertexID(v), r1)
			want := cold.DrawAt(graph.VertexID(v), r2)
			if got != want {
				t.Fatalf("vertex %d draw %d: derived %d, cold %d", v, i, got, want)
			}
		}
	}

	// Derive-from-derived is rejected: spill arenas must never chain.
	if _, err := d.WithRebuiltRows(snap); err == nil {
		t.Fatal("WithRebuiltRows accepted an already-derived receiver")
	}
}

// TestRegistryAcquireSnapshot covers the epoch dimension of the registry:
// parametric samplers stay shared across epochs, dirty alias snapshots
// get per-epoch derived entries whose base borrow is released on
// eviction, and the tiered alias store refuses dirty snapshots.
func TestRegistryAcquireSnapshot(t *testing.T) {
	g, _, snap := versionedSamplingFixture(t)
	reg := NewRegistry()

	// Parametric kinds resolve to the plain (graph, spec) entry.
	uspec := Spec{Kind: KindUniform}
	plain, err := reg.Acquire(g, uspec)
	if err != nil {
		t.Fatal(err)
	}
	snapped, err := reg.AcquireSnapshot(snap, uspec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sampler() != snapped.Sampler() {
		t.Fatal("parametric snapshot acquisition split the shared entry")
	}
	plain.Release()
	snapped.Release()

	// Dirty alias snapshot: a derived per-epoch entry sharing base arenas.
	aspec := Spec{Kind: KindAlias, Weighted: true}
	baseRef, err := reg.Acquire(g, aspec)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := reg.AcquireSnapshot(snap, aspec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := reg.AcquireSnapshot(snap, aspec)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Sampler() != d2.Sampler() {
		t.Fatal("same-epoch acquisitions returned distinct derived samplers")
	}
	if reg.SnapshotRefs(snap, aspec) != 2 {
		t.Fatalf("SnapshotRefs = %d, want 2", reg.SnapshotRefs(snap, aspec))
	}
	derived, ok := d1.Sampler().(*AliasSampler)
	if !ok {
		t.Fatalf("derived sampler is %T", d1.Sampler())
	}
	if !derived.SharesArenasWith(baseRef.Sampler().(*AliasSampler)) {
		t.Fatal("derived registry sampler does not share base arenas")
	}
	if derived == baseRef.Sampler() {
		t.Fatal("dirty snapshot served the base sampler itself")
	}

	// The derived entry holds a borrow of the base entry; when the last
	// external reference to both goes, the registry must empty.
	baseRef.Release()
	if reg.Refs(g, aspec) != 1 { // derived entry's internal borrow remains
		t.Fatalf("base refs after external release = %d, want 1", reg.Refs(g, aspec))
	}
	d1.Release()
	d2.Release()
	if reg.Len() != 0 {
		t.Fatalf("registry not empty after releasing all refs: Len = %d", reg.Len())
	}

	// Tiered alias + dirty snapshot is a policy error.
	if _, err := reg.AcquireSnapshot(snap, Spec{Kind: KindAlias, Weighted: true, TierBudget: 1 << 20}); err == nil {
		t.Fatal("tiered alias spec accepted a dirty snapshot")
	}
}

// TestRegistryRecyclesDerivedLocators: evicting an epoch's derived alias
// entry hands its locator array back to the base, the next epoch's
// derivation refills that array instead of allocating one, and its draws
// still match a cold build of the next epoch's graph.
func TestRegistryRecyclesDerivedLocators(t *testing.T) {
	g, vg, snap := versionedSamplingFixture(t)
	reg := NewRegistry()
	spec := Spec{Kind: KindAlias, Weighted: true}
	baseRef, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer baseRef.Release()
	first, err := reg.AcquireSnapshot(snap, spec)
	if err != nil {
		t.Fatal(err)
	}
	d1 := first.Sampler().(*AliasSampler)
	loc1 := &d1.loc[0]
	first.Release()
	if d1.loc != nil {
		t.Fatal("evicted derived sampler kept its locators")
	}

	if err := vg.InsertEdges([]graph.Edge{{Src: 7, Dst: 77}, {Src: 200, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	second, err := reg.AcquireSnapshot(vg.Snapshot(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Release()
	d2 := second.Sampler().(*AliasSampler)
	if &d2.loc[0] != loc1 {
		t.Fatal("next epoch's derived sampler allocated new locators instead of reusing the evicted ones")
	}
	cold, err := NewAliasSampler(vg.Compact())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices; v++ {
		r1, r2 := rng.New(uint64(v)+1), rng.New(uint64(v)+1)
		for i := 0; i < 16; i++ {
			if got, want := d2.DrawAt(graph.VertexID(v), r1), cold.DrawAt(graph.VertexID(v), r2); got != want {
				t.Fatalf("vertex %d draw %d: recycled-locator sampler %d, cold %d", v, i, got, want)
			}
		}
	}
}

// TestSpecStringRoundTrip is the Spec.String bugfix regression: the
// rendering must be injective (rejection and reservoir no longer collapse
// at p=q=0, schemas print as label lists, not raw bytes) and ParseSpec
// must invert it exactly.
func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindUniform},
		{Kind: KindUniform, Weighted: true},
		{Kind: KindAlias, Weighted: true},
		{Kind: KindAlias, Weighted: true, TierBudget: 1 << 20},
		{Kind: KindAlias, Weighted: true, TierBudget: -1},
		{Kind: KindRejection},
		{Kind: KindReservoir},
		{Kind: KindRejection, P: 0.25, Q: 4},
		{Kind: KindReservoir, P: 0.25, Q: 4},
		{Kind: KindRejection, P: 0.5},
		{Kind: KindMetaPath, Schema: string([]byte{0, 1, 2})},
		{Kind: KindMetaPath, Schema: string([]byte{2, 200})},
		{Kind: KindMetaPath},
	}
	seen := map[string]Spec{}
	for _, s := range specs {
		str := s.String()
		if prev, dup := seen[str]; dup {
			t.Fatalf("specs %+v and %+v both render %q", prev, s, str)
		}
		seen[str] = s
		got, err := ParseSpec(str)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", str, err)
		}
		if got != s {
			t.Fatalf("round trip of %q: got %+v, want %+v", str, got, s)
		}
	}
	// The schema must render as decimal labels, not raw bytes.
	if str := (Spec{Kind: KindMetaPath, Schema: string([]byte{0, 1, 2})}).String(); !strings.Contains(str, "schema=[0,1,2]") {
		t.Fatalf("schema rendering %q not a label list", str)
	}
	for _, bad := range []string{"", "warp", "metapath schema=0,1", "rejection p=x q=1", "uniform tier=x", "alias+w nonsense"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}
