package walk

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// node2vecBiases is the (p, q) matrix of the rejection Sample pass: the
// default (2, 0.5) and its mirror (0.5, 2) take the Prev Access probe on
// opposite sides of the coin; (1, 1) never probes; (4, 4) and
// (0.25, 0.25) put the explore bias below and above the stay-near bias;
// and (100, 100) accepts so rarely that most decisions reach MaxTrips.
var node2vecBiases = []struct {
	p, q float64
	// digest is pathsDigest of Run's paths for the matrix's query batch,
	// recorded before the coin-first acceptance rule and the cohort's
	// rejection pass existed: both must keep every trajectory.
	digest uint64
}{
	{2, 0.5, 0xaad5d1c7a1dcf1f2},
	{0.5, 2, 0xf03ac916771657bd},
	{1, 1, 0xfd6fc1d2acd1650d},
	{4, 4, 0x510d33bfdc1f5ce6},
	{0.25, 0.25, 0x78661124327dcf92},
	{100, 100, 0xeef2cb5335c8c30d},
}

// pathsDigest hashes a batch's paths in batch order.
func pathsDigest(paths [][]graph.VertexID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range paths {
		for _, v := range p {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return h.Sum64()
}

// node2vecMatrixQueries is the matrix's query batch on the irregular
// unweighted graph, with some walks started on sinks and degree-1 rows.
func node2vecMatrixQueries(t *testing.T, g *graph.CSR, cfg Config) []Query {
	t.Helper()
	qs, err := RandomQueries(g, cfg, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		qs[7*i].Start = graph.VertexID(20 + i)
	}
	return qs
}

// TestNode2VecRejectionMatrix pins the flat-lane rejection Sample pass:
// across the (p, q) matrix, Run's trajectories still match their
// recorded digests, and a pipeline of every cohort size reproduces them
// byte-identically, also when reused across batches.
func TestNode2VecRejectionMatrix(t *testing.T) {
	g := pipelineUnweightedGraph(t)
	for _, b := range node2vecBiases {
		t.Run(fmt.Sprintf("p=%g,q=%g", b.p, b.q), func(t *testing.T) {
			cfg := DefaultConfig(Node2Vec)
			cfg.P, cfg.Q = b.p, b.q
			cfg.WalkLength = 24
			cfg.Seed = 5
			qs := node2vecMatrixQueries(t, g, cfg)
			want, err := Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := pathsDigest(want.Paths); got != b.digest {
				t.Fatalf("Run's paths digest %#x, want %#x", got, b.digest)
			}
			for _, size := range []int{1, 3, 64, 257} {
				p, err := NewPipeline(g, cfg, size)
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 2; rep++ {
					paths, steps, err := collectPipeline(p, qs)
					if err != nil {
						t.Fatal(err)
					}
					if steps != want.Steps || !reflect.DeepEqual(paths, want.Paths) {
						t.Fatalf("cohort=%d rep %d: pipelined paths differ from Run", size, rep)
					}
				}
			}
		})
	}
}

// TestNode2VecRejectionHubRow runs the rejection pass on a graph whose
// hub row has 4 500 entries starting at an unaligned Col offset: every
// other vertex links back to the hub, so most Prev Access probes search
// the hub row, which starts at the fence index's third level. The
// pipeline must match Run byte for byte, with the index from Spec.Build
// and with the one a cohort builds for a hand-built sampler.
func TestNode2VecRejectionHubRow(t *testing.T) {
	const n, hub, hubDeg = 6000, 1, 4500
	r := rng.New(29)
	var edges []graph.Edge
	for i := 0; i < 7; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(r.Intn(n))})
	}
	for i := 0; i < hubDeg; i++ {
		edges = append(edges, graph.Edge{Src: hub, Dst: graph.VertexID(100 + i)})
	}
	for v := 2; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: hub})
		for i := 0; i < 3; i++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(r.Intn(n))})
		}
	}
	g, err := graph.Build(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if lo := g.RowPtr[hub]; lo%16 == 0 || g.Degree(hub) <= 4096 {
		t.Fatalf("hub row at %d with degree %d, want an unaligned row of > 4096 entries", lo, g.Degree(hub))
	}
	cfg := DefaultConfig(Node2Vec)
	cfg.WalkLength = 40
	cfg.Seed = 11
	qs, err := RandomQueries(g, cfg, 400, 13)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built sampler has no fence index: the cohort builds its own.
	bare, err := sampling.NewRejection(cfg.P, cfg.Q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sampling.Sampler{built, bare} {
		for _, size := range []int{1, 64, 257} {
			p, err := NewPipelineWithSampler(g, cfg, s, size)
			if err != nil {
				t.Fatal(err)
			}
			paths, steps, err := collectPipeline(p, qs)
			if err != nil {
				t.Fatal(err)
			}
			if steps != want.Steps || !reflect.DeepEqual(paths, want.Paths) {
				t.Fatalf("cohort=%d, fences from Spec.Build %v: pipelined paths differ from Run", size, s == built)
			}
		}
	}
}

// TestCohortResumesNode2VecStates admits walks that are already mid-walk
// — advanced a few hops by Advance, so they arrive with HasPrev set, as
// resumed States and shard migrations do — and checks the cohort
// finishes each exactly as Run does. The Prev Access probe reads the
// previous row Admit loads for such walkers.
func TestCohortResumesNode2VecStates(t *testing.T) {
	g := pipelineUnweightedGraph(t)
	for _, b := range node2vecBiases {
		t.Run(fmt.Sprintf("p=%g,q=%g", b.p, b.q), func(t *testing.T) {
			cfg := DefaultConfig(Node2Vec)
			cfg.P, cfg.Q = b.p, b.q
			cfg.WalkLength = 24
			cfg.Seed = 5
			qs := node2vecMatrixQueries(t, g, cfg)
			want, err := Run(g, qs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := BuildSampler(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.NewSource(cfg.Seed)
			for _, size := range []int{1, 3, 64} {
				c, err := NewCohort(g, cfg, s, size)
				if err != nil {
					t.Fatal(err)
				}
				sts := make([]State, len(qs))
				rs := make([]rng.Stream, len(qs))
				for i, q := range qs {
					src.StreamInto(uint64(q.ID), &rs[i])
					sts[i].Start(q)
					for h := 0; h < 1+i%3 && Advance(g, s, cfg, &sts[i], &rs[i]); h++ {
					}
				}
				// Lanes free up as walks retire; admit the rest as they do.
				next, done := 0, 0
				retire := func(int32) error { done++; return nil }
				for done < len(qs) {
					for next < len(qs) && c.Admit(&sts[next], &rs[next], int32(next)) {
						next++
					}
					if err := c.Step(nil, nil, retire); err != nil {
						t.Fatal(err)
					}
				}
				for i := range qs {
					if !reflect.DeepEqual(sts[i].Path, want.Paths[i]) {
						t.Fatalf("cohort=%d query %d: resumed path %v, want %v", size, i, sts[i].Path, want.Paths[i])
					}
				}
			}
		})
	}
}
