package sampling

import (
	"fmt"
	"sync"
	"testing"

	"ridgewalker/internal/graph"
)

func registryTestGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.Graph500(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	g.AttachWeights()
	g.AttachLabels(3)
	return g
}

// TestRegistrySharesSamplerInstance: acquisitions of the same (graph,
// spec) key must return the same sampler instance and hold one entry.
func TestRegistrySharesSamplerInstance(t *testing.T) {
	g := registryTestGraph(t)
	reg := NewRegistry()
	spec := Spec{Kind: KindAlias, Weighted: true}
	a, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sampler() != b.Sampler() {
		t.Fatal("same key returned distinct sampler instances")
	}
	if reg.Len() != 1 || reg.Refs(g, spec) != 2 {
		t.Fatalf("Len=%d Refs=%d, want 1/2", reg.Len(), reg.Refs(g, spec))
	}
	a.Release()
	if reg.Refs(g, spec) != 1 {
		t.Fatalf("Refs after one release = %d, want 1", reg.Refs(g, spec))
	}
	a.Release() // double release must not double-decrement
	if reg.Refs(g, spec) != 1 {
		t.Fatalf("double Release decremented twice: Refs = %d", reg.Refs(g, spec))
	}
	b.Release()
	if reg.Len() != 0 {
		t.Fatalf("entry not evicted with the last reference: Len = %d", reg.Len())
	}
	// Re-acquisition after eviction rebuilds.
	c, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampler() == a.Sampler() {
		t.Fatal("evicted sampler instance resurrected")
	}
	c.Release()
}

// TestRegistryKeysDistinguishSpecs: differing kinds, parameters, schemas,
// and graphs must not share entries.
func TestRegistryKeysDistinguishSpecs(t *testing.T) {
	g1 := registryTestGraph(t)
	g2 := registryTestGraph(t)
	reg := NewRegistry()
	var refs []*SamplerRef
	for _, tc := range []struct {
		g    *graph.CSR
		spec Spec
	}{
		{g1, Spec{Kind: KindUniform}},
		{g1, Spec{Kind: KindAlias, Weighted: true}},
		{g1, Spec{Kind: KindReservoir, Weighted: true, P: 2, Q: 0.5}},
		{g1, Spec{Kind: KindReservoir, Weighted: true, P: 1, Q: 1}},
		{g1, Spec{Kind: KindMetaPath, Weighted: true, Schema: string([]uint8{0, 1})}},
		{g1, Spec{Kind: KindMetaPath, Weighted: true, Schema: string([]uint8{0, 1, 2})}},
		{g2, Spec{Kind: KindUniform}},
	} {
		ref, err := reg.Acquire(tc.g, tc.spec)
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		refs = append(refs, ref)
	}
	if reg.Len() != len(refs) {
		t.Fatalf("Len = %d, want %d distinct entries", reg.Len(), len(refs))
	}
	for _, ref := range refs {
		ref.Release()
	}
	if reg.Len() != 0 {
		t.Fatalf("Len after releasing all = %d", reg.Len())
	}
}

// TestRegistryFailedBuildRetries: a failed build (alias sampler on an
// unweighted graph) must not leave a poisoned entry — after weights are
// attached, acquisition succeeds.
func TestRegistryFailedBuildRetries(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.Graph500(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	spec := Spec{Kind: KindAlias, Weighted: true}
	if _, err := reg.Acquire(g, spec); err == nil {
		t.Fatal("alias sampler built over unweighted graph")
	}
	if reg.Len() != 0 {
		t.Fatalf("failed build left an entry: Len = %d", reg.Len())
	}
	g.AttachWeights()
	ref, err := reg.Acquire(g, spec)
	if err != nil {
		t.Fatalf("retry after attaching weights failed: %v", err)
	}
	ref.Release()
}

// TestRegistryConcurrentAcquireRelease hammers one registry from many
// goroutines across a handful of keys (run under -race in CI): every
// acquisition must observe a usable sampler, same-key acquisitions in the
// same epoch must share one instance, and the registry must end empty.
func TestRegistryConcurrentAcquireRelease(t *testing.T) {
	g := registryTestGraph(t)
	reg := NewRegistry()
	specs := []Spec{
		{Kind: KindUniform},
		{Kind: KindAlias, Weighted: true},
		{Kind: KindRejection, P: 2, Q: 0.5},
		{Kind: KindReservoir, Weighted: true, P: 2, Q: 0.5},
	}
	const goroutines = 16
	iters := 200
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				spec := specs[(i+n)%len(specs)]
				ref, err := reg.Acquire(g, spec)
				if err != nil {
					errCh <- err
					return
				}
				if ref.Sampler() == nil {
					errCh <- fmt.Errorf("nil sampler for %v", spec)
					return
				}
				if ref.Sampler().Kind() != spec.Kind {
					errCh <- fmt.Errorf("kind mismatch for %v", spec)
					return
				}
				ref.Release()
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry leaked %d entries", reg.Len())
	}
}

// TestRejectionFootprintCountsFences: a registry-built rejection sampler
// carries the fence index over its graph and reports its bytes; one
// built by hand carries none.
func TestRejectionFootprintCountsFences(t *testing.T) {
	g := registryTestGraph(t)
	reg := NewRegistry()
	ref, err := reg.Acquire(g, Spec{Kind: KindRejection, P: 2, Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	rej := ref.Sampler().(*Rejection)
	if rej.Fences() == nil || rej.Fences().Graph() != g {
		t.Fatal("registry-built rejection sampler has no fence index over its graph")
	}
	if got, want := Footprint(rej), rej.Fences().Bytes(); got == 0 || got != want {
		t.Fatalf("Footprint = %d, want the fence bytes %d (> 0)", got, want)
	}
	bare, err := NewRejection(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := Footprint(bare); got != 0 {
		t.Fatalf("Footprint of NewRejection = %d, want 0", got)
	}
}
