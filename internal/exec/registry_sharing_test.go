package exec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// sessionSampler exposes the registry borrow a cpu-family session holds.
func sessionSampler(t *testing.T, s Session) sampling.Sampler {
	t.Helper()
	if ses, ok := s.(*cpuSession); ok {
		return ses.sampler.Sampler()
	}
	t.Fatalf("session %T holds no sampler ref", s)
	return nil
}

// TestSessionsShareSamplerAcrossWalkLengths pins the registry's whole
// point: sessions whose configurations differ only in parameters the
// sampler never reads — walk length, seed, PPR's α — must borrow one
// sampler instance instead of rebuilding O(E) state per configuration.
func TestSessionsShareSamplerAcrossWalkLengths(t *testing.T) {
	g := testGraph(t)
	cfg1 := walk.DefaultConfig(walk.DeepWalk)
	cfg1.WalkLength = 20
	cfg1.Seed = 11
	cfg2 := cfg1
	cfg2.WalkLength = 40
	cfg2.Seed = 99
	spec, err := walk.SamplerSpec(g, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	reg := sampling.DefaultRegistry()
	if n := reg.Refs(g, spec); n != 0 {
		t.Fatalf("stale refs before test: %d", n)
	}
	s1, err := Open("cpu", g, Config{Walk: cfg1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open("cpu", g, Config{Walk: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	if sessionSampler(t, s1) != sessionSampler(t, s2) {
		t.Fatal("sessions differing only in walk length built separate samplers")
	}
	if n := reg.Refs(g, spec); n != 2 {
		t.Fatalf("registry refs = %d, want 2", n)
	}
	// The sharing crosses backends too: pipelined and sharded sessions
	// borrow the same flat store.
	s3, err := Open("cpu-pipelined", g, Config{Walk: cfg2, Cohort: 8})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Open("cpu-sharded", g, Config{Walk: cfg1, Shards: 2, Cohort: 1})
	if err != nil {
		t.Fatal(err)
	}
	s5, err := Open("cpu-sharded", g, Config{Walk: cfg1, Cohort: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []Session{s3, s4, s5} {
		if sessionSampler(t, s) != sessionSampler(t, s1) {
			t.Fatalf("session %d does not share the registry sampler", i+3)
		}
	}
	if n := reg.Refs(g, spec); n != 5 {
		t.Fatalf("registry refs = %d, want 5", n)
	}
	// Shared state must not change behavior: both walk lengths still
	// match the golden engine.
	for _, tc := range []struct {
		ses Session
		cfg walk.Config
	}{{s1, cfg1}, {s2, cfg2}} {
		qs, err := walk.RandomQueries(g, tc.cfg, 120, 17)
		if err != nil {
			t.Fatal(err)
		}
		want, err := walk.Run(g, qs, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.ses.Run(context.Background(), Batch{Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Paths, want.Paths) {
			t.Fatal("shared-sampler session diverged from golden engine")
		}
	}
	// The last Close evicts the sampler from the registry.
	for _, s := range []Session{s1, s2, s3, s4, s5} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Refs(g, spec); n != 0 {
		t.Fatalf("refs after closing all sessions = %d, want 0 (evicted)", n)
	}
}

// TestPlanRestoreIsRegistrySafe pins the planner's sampler discipline:
// a breaker restore's health check opens its session through the
// registry like any other and releases it, so refcounts end where they
// started — it neither leaks a borrow nor evicts the store a live session
// is walking on.
func TestPlanRestoreIsRegistrySafe(t *testing.T) {
	g := testGraph(t)
	cfg := walk.DefaultConfig(walk.DeepWalk)
	cfg.WalkLength = 20
	cfg.Seed = 11
	spec, err := walk.SamplerSpec(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := sampling.DefaultRegistry()
	live, err := Open("cpu", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	liveSampler := sessionSampler(t, live)
	entries := reg.Len()
	p := NewPlanner(g, Config{Walk: cfg})
	if _, ok := p.Demote(cfg, "test"); !ok {
		t.Fatal("demote refused")
	}
	if pl, ok := p.Restore(cfg); !ok || pl.Backend != "cpu-pipelined" {
		t.Fatalf("restore = %v, %v; want the cpu-pipelined plan back", pl, ok)
	}
	if n := reg.Refs(g, spec); n != 1 {
		t.Fatalf("refs after the health check = %d, want 1 (the check must release)", n)
	}
	if n := reg.Len(); n != entries {
		t.Fatalf("registry entries %d -> %d across the health check", entries, n)
	}
	if sessionSampler(t, live) != liveSampler {
		t.Fatal("the health check evicted and rebuilt the live session's sampler")
	}
}

// TestSamplerBytesCapability: cpu-family sessions report the shared
// sampler footprint; the flat alias store's size is exact (12 bytes per
// edge slot + 8 per locator word).
func TestSamplerBytesCapability(t *testing.T) {
	g := testGraph(t)
	cfg := walk.DefaultConfig(walk.DeepWalk)
	ses, err := Open("cpu", g, Config{Walk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	sizer, ok := ses.(SamplerSizer)
	if !ok {
		t.Fatal("cpu session does not implement SamplerSizer")
	}
	want := int64(len(g.Col))*12 + int64(g.NumVertices)*8
	if got := sizer.SamplerBytes(); got != want {
		t.Fatalf("SamplerBytes = %d, want %d", got, want)
	}
	uni, err := Open("cpu", g, Config{Walk: walk.DefaultConfig(walk.URW)})
	if err != nil {
		t.Fatal(err)
	}
	defer uni.Close()
	if got := uni.(SamplerSizer).SamplerBytes(); got != 0 {
		t.Fatalf("uniform SamplerBytes = %d, want 0", got)
	}
}

// TestUnweightedEquivalenceMatrix extends the cross-backend matrices to
// unweighted graphs, where Node2Vec takes the rejection path instead of
// the weighted reservoir: every applicable algorithm × backend must stay
// byte-identical to the cpu backend.
func TestUnweightedEquivalenceMatrix(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachLabels(3) // labeled but unweighted: MetaPath runs, DeepWalk cannot
	for _, alg := range []walk.Algorithm{walk.URW, walk.PPR, walk.Node2Vec, walk.MetaPath} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg, qs := testWorkload(t, g, alg, 250)
			cpu, err := Open("cpu", g, Config{Walk: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer cpu.Close()
			want, err := cpu.Run(context.Background(), Batch{Queries: qs})
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []struct {
				backend string
				cfg     Config
			}{
				{"cpu-sharded", Config{Walk: cfg, Shards: 3, Cohort: 1}},
				{"cpu-pipelined", Config{Walk: cfg, Cohort: 16}},
				{"cpu-sharded", Config{Walk: cfg, Cohort: 16, Shards: 2}},
			} {
				name := fmt.Sprintf("%s-c%d", variant.backend, variant.cfg.Cohort)
				if variant.cfg.Shards > 0 {
					name = fmt.Sprintf("%s-s%d", name, variant.cfg.Shards)
				}
				ses, err := Open(variant.backend, g, variant.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ses.Run(context.Background(), Batch{Queries: qs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("%s paths differ from cpu on unweighted graph", name)
				}
				if err := ses.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestNaNParametersRejected pins the validation guard the registry
// depends on: NaN p/q (or α) must fail Open — a NaN inside a registry
// map key would be unfindable and undeletable, leaking one entry per
// session open.
func TestNaNParametersRejected(t *testing.T) {
	g := testGraph(t)
	nan := math.NaN()
	n2v := walk.DefaultConfig(walk.Node2Vec)
	n2v.P = nan
	if _, err := Open("cpu", g, Config{Walk: n2v}); err == nil {
		t.Fatal("NaN p accepted")
	}
	n2v = walk.DefaultConfig(walk.Node2Vec)
	n2v.Q = nan
	if _, err := Open("cpu", g, Config{Walk: n2v}); err == nil {
		t.Fatal("NaN q accepted")
	}
	ppr := walk.DefaultConfig(walk.PPR)
	ppr.Alpha = nan
	if _, err := Open("cpu", g, Config{Walk: ppr}); err == nil {
		t.Fatal("NaN alpha accepted")
	}
}
