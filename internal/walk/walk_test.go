package walk

import (
	"math"
	"testing"

	"ridgewalker/internal/graph"
)

func urwConfig(length int) Config {
	return Config{Algorithm: URW, WalkLength: length, Seed: 7}
}

func TestURWPathsValid(t *testing.T) {
	g := graph.SmallTestGraph()
	qs, err := RandomQueries(g, urwConfig(10), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, qs, urwConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePaths(g, res, urwConfig(10)); err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps taken")
	}
}

func TestURWFixedLengthOnSinklessGraph(t *testing.T) {
	// SmallTestGraph has no zero-out-degree vertices, so every URW runs the
	// full length.
	g := graph.SmallTestGraph()
	cfg := urwConfig(20)
	qs, _ := RandomQueries(g, cfg, 30, 2)
	res, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Paths {
		if len(p) != 21 {
			t.Fatalf("query %d path length %d, want 21", i, len(p))
		}
	}
	if res.Steps != 30*20 {
		t.Fatalf("Steps = %d, want %d", res.Steps, 30*20)
	}
}

func TestURWTerminatesAtSink(t *testing.T) {
	// 0→1→2, 2 has no out-edges.
	g, err := graph.Build(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := urwConfig(10)
	res, err := Run(g, []Query{{ID: 0, Start: 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	if len(p) != 3 || p[2] != 2 {
		t.Fatalf("path = %v, want [0 1 2]", p)
	}
}

func TestPPRLengthsGeometric(t *testing.T) {
	g := graph.SmallTestGraph()
	cfg := DefaultConfig(PPR)
	cfg.WalkLength = 1000 // effectively unbounded; alpha terminates
	cfg.Seed = 3
	qs, _ := RandomQueries(g, cfg, 4000, 4)
	res, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hop count per walk ~ Geometric(alpha) with mean 1/alpha = 5.
	mean := float64(res.Steps) / float64(len(qs))
	if math.Abs(mean-5) > 0.3 {
		t.Fatalf("PPR mean walk length %v, want ~5 (alpha=0.2)", mean)
	}
}

func TestDeepWalkRequiresWeights(t *testing.T) {
	g := graph.SmallTestGraph()
	cfg := DefaultConfig(DeepWalk)
	if _, err := Run(g, []Query{{Start: 0}}, cfg); err == nil {
		t.Fatal("DeepWalk ran on unweighted graph")
	}
}

func TestDeepWalkBiasedTowardHeavyEdges(t *testing.T) {
	// Two neighbors with weights 1 and 9: the heavy one must dominate.
	g, err := graph.Build(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	g.Weights = []float32{1, 9}
	cfg := Config{Algorithm: DeepWalk, WalkLength: 1, Seed: 5}
	qs := make([]Query, 20000)
	for i := range qs {
		qs[i] = Query{ID: uint32(i), Start: 0}
	}
	res, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for _, p := range res.Paths {
		if len(p) > 1 && p[1] == 2 {
			heavy++
		}
	}
	frac := float64(heavy) / float64(len(qs))
	if math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("heavy edge fraction %v, want ~0.9", frac)
	}
}

func TestNode2VecPathsValid(t *testing.T) {
	g := graph.SmallTestGraph()
	cfg := DefaultConfig(Node2Vec)
	cfg.WalkLength = 15
	qs, _ := RandomQueries(g, cfg, 40, 6)
	res, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePaths(g, res, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNode2VecWeightedUsesReservoir(t *testing.T) {
	g := graph.SmallTestGraph()
	g.AttachWeights()
	cfg := DefaultConfig(Node2Vec)
	s, err := BuildSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.RPEntryBits() != 128 {
		t.Fatalf("weighted Node2Vec RP entry = %d bits, want 128 (reservoir)", s.RPEntryBits())
	}
}

func TestMetaPathRespectsSchema(t *testing.T) {
	g := graph.SmallTestGraph()
	g.AttachWeights()
	g.AttachLabels(3)
	cfg := DefaultConfig(MetaPath)
	cfg.WalkLength = 12
	qs, err := RandomQueries(g, cfg, 30, 7)
	if err != nil {
		t.Skip("no start vertices with schema label in tiny graph")
	}
	res, err := Run(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Paths {
		for j, v := range p {
			if want := cfg.Schema[j%len(cfg.Schema)]; g.Label(v) != want {
				t.Fatalf("query %d position %d: label %d, want %d", i, j, g.Label(v), want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.SmallTestGraph()
	bad := []Config{
		{Algorithm: URW, WalkLength: 0},
		{Algorithm: PPR, WalkLength: 10, Alpha: 1.5},
		{Algorithm: Node2Vec, WalkLength: 10, P: 0, Q: 1},
		{Algorithm: MetaPath, WalkLength: 10},
		{Algorithm: Algorithm(99), WalkLength: 10},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(g); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRandomQueriesSkipSinks(t *testing.T) {
	g, err := graph.Build(3, []graph.Edge{{Src: 0, Dst: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := RandomQueries(g, urwConfig(5), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Start != 0 {
			t.Fatalf("query starts at sink/isolated vertex %d", q.Start)
		}
	}
}

func TestVisitCounts(t *testing.T) {
	g := graph.SmallTestGraph()
	res := &Result{Paths: [][]graph.VertexID{{0, 1, 0}, {2}}}
	counts := VisitCounts(g, res)
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestValidatePathsCatchesNonEdges(t *testing.T) {
	g := graph.SmallTestGraph()
	res := &Result{Paths: [][]graph.VertexID{{0, 2}}} // 0→2 not an edge
	if err := ValidatePaths(g, res, urwConfig(5)); err == nil {
		t.Fatal("invalid path accepted")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for _, a := range Algorithms {
		if a.String() == "" || a.String()[0] == 'A' {
			t.Errorf("Algorithm(%d).String() = %q", int(a), a.String())
		}
	}
}
