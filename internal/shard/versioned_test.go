package shard

import (
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// TestEngineSnapshotEquivalence pins the sharded fabric's dynamic-graph
// contract: runs over (base + overlay snapshot) are byte-identical to the
// golden engine over a cold fold of the final graph at two cohort widths,
// and RunStats carries the pinned epoch and overlay size.
func TestEngineSnapshotEquivalence(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	vg := graph.NewVersioned(g)
	n := graph.VertexID(g.NumVertices)
	var ins []graph.Edge
	for i := 0; i < 40; i++ {
		ins = append(ins, graph.Edge{Src: graph.VertexID(i*29) % n, Dst: graph.VertexID(i*83+7) % n})
	}
	if err := vg.InsertEdges(ins); err != nil {
		t.Fatal(err)
	}
	if err := vg.DeleteEdges(ins[:10]); err != nil {
		t.Fatal(err)
	}
	snap := vg.ServingSnapshot()
	if snap == nil {
		t.Fatal("no overlay")
	}
	final := vg.Compact()

	for _, alg := range []walk.Algorithm{walk.URW, walk.DeepWalk, walk.Node2Vec} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := walk.DefaultConfig(alg)
			cfg.WalkLength = 20
			cfg.Seed = 13
			qs, err := walk.RandomQueries(g, cfg, 200, 19)
			if err != nil {
				t.Fatal(err)
			}
			want, err := walk.Run(final, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ecfg := range []EngineConfig{
				{Workers: 4, Cohort: 1, Snapshot: snap},
				{Workers: 4, Cohort: 8, Snapshot: snap},
			} {
				p, err := Partition(g, 3)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(g, p, cfg, ecfg)
				if err != nil {
					t.Fatal(err)
				}
				got, stats := runEngine(t, e, qs)
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("cohort=%d: overlay paths differ from cold fold", ecfg.Cohort)
				}
				if stats.Epoch != snap.Epoch() || stats.OverlayRows != snap.NumDirty() {
					t.Fatalf("cohort=%d: stats epoch=%d overlay=%d, want %d/%d",
						ecfg.Cohort, stats.Epoch, stats.OverlayRows, snap.Epoch(), snap.NumDirty())
				}
			}

			// Unversioned runs report zero epoch accounting.
			p, err := Partition(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(g, p, cfg, EngineConfig{Workers: 2, Cohort: 8})
			if err != nil {
				t.Fatal(err)
			}
			_, stats := runEngine(t, e, qs)
			if stats.Epoch != 0 || stats.OverlayRows != 0 {
				t.Fatalf("unversioned stats epoch=%d overlay=%d", stats.Epoch, stats.OverlayRows)
			}
		})
	}

	// A snapshot over a different graph is rejected at construction.
	other, err := graph.GenerateRMAT(graph.Graph500(6, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	other.AttachWeights()
	p, err := Partition(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(other, p, walk.DefaultConfig(walk.URW), EngineConfig{Cohort: 8, Snapshot: snap}); err == nil {
		t.Fatal("snapshot over a different graph accepted")
	}
}
