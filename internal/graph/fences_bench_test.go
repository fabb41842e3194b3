package graph_test

import (
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
	"ridgewalker/internal/sampling"
)

// prevProbe is one Prev Access probe: does prev's row, Col[lo:hi), hold x?
type prevProbe struct {
	prev   graph.VertexID
	lo, hi int64
	x      graph.VertexID
}

// node2vecProbes replays the rejection loop of walks unweighted Node2Vec
// walks (p=2, q=0.5, 80 hops) from random starts and records every probe
// its coin leaves undecided — the probes the cohort's Prev Access issues.
func node2vecProbes(tb testing.TB, g *graph.CSR, walks int) []prevProbe {
	rej, err := sampling.NewRejection(2, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(1)
	var ps []prevProbe
	for w := 0; w < walks; w++ {
		cur := graph.VertexID(r.Intn(g.NumVertices))
		var prev graph.VertexID
		var plo, phi int64
		for hop := 0; hop < 80; hop++ {
			lo, hi := g.RowPtr[cur], g.RowPtr[cur+1]
			if lo == hi {
				break
			}
			for trips := 1; ; trips++ {
				x := g.Col[lo+int64(r.Intn(int(hi-lo)))]
				ok := hop == 0
				if !ok {
					switch rej.Decide(r.Float64(), trips, x == prev) {
					case sampling.Accepted:
						ok = true
					case sampling.NeedsProbe:
						ps = append(ps, prevProbe{prev, plo, phi, x})
						ok = rej.Probed(g.HasEdge(prev, x))
					}
				}
				if ok {
					prev, cur, plo, phi = cur, x, lo, hi
					break
				}
			}
		}
	}
	return ps
}

// BenchmarkPrevAccessProbe times the Prev Access probes of 20 000
// Node2Vec walks on RMAT-18 through CSR.HasEdge's binary search and
// through the fence index, in ns per probe. The probes of one pass are
// independent, as the cohort's are, so misses overlap in both.
func BenchmarkPrevAccessProbe(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.Graph500(18, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	ps := node2vecProbes(b, g, 20000)
	f := graph.NewFences(g)
	run := func(name string, probe func(p *prevProbe) bool) {
		b.Run(name, func(b *testing.B) {
			hits := 0
			for i, j := 0, 0; i < b.N; i++ {
				if probe(&ps[j]) {
					hits++
				}
				if j++; j == len(ps) {
					j = 0
				}
			}
			probeHits = hits
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
		})
	}
	run("HasEdge", func(p *prevProbe) bool { return g.HasEdge(p.prev, p.x) })
	run("Fences", func(p *prevProbe) bool { return f.Contains(p.lo, p.hi, p.x) })
}

// probeHits keeps the probes' answers live.
var probeHits int
