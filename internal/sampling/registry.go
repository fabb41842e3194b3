package sampling

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
)

// Spec names everything that determines a sampler's state: the sampling
// algorithm plus only the parameters that algorithm actually conditions
// on. Walk-level parameters that never reach the sampler — walk length,
// PPR's α, the seed — are deliberately absent, so sessions differing only
// in those share one sampler instance through the Registry instead of
// rebuilding O(E) state per configuration.
type Spec struct {
	// Kind selects the sampling algorithm (Table I).
	Kind Kind
	// Weighted records whether the sampler reads edge weights. It is part
	// of the key because weights can be attached to a CSR in place:
	// a sampler built before AttachWeights must not be served after.
	Weighted bool
	// P, Q are the node2vec bias factors (rejection, reservoir); zero for
	// the other kinds.
	P, Q float64
	// Schema is MetaPath's cyclic vertex-type sequence, stored as a
	// string so the Spec is comparable.
	Schema string
	// TierBudget, when nonzero, selects the tiered alias store with that
	// hot-tier byte budget (negative pins nothing — an all-cold store).
	// Zero keeps the flat arenas. Part of the key because different
	// budgets pin different hot sets; only KindAlias conditions on it, so
	// engines must leave it zero for the other kinds or sessions that
	// could share a sampler will not.
	TierBudget int64
}

// String renders the spec for diagnostics — eviction logs, perf reports.
// The rendering is injective over valid specs and ParseSpec inverts it.
// Kinds that condition on p/q (rejection, reservoir) always print them,
// even at p=q=0, so two such specs never collapse to the same string;
// schemas print as bracketed decimal label lists instead of raw bytes.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	if s.Weighted {
		b.WriteString("+w")
	}
	if s.Kind == KindRejection || s.Kind == KindReservoir || s.P != 0 || s.Q != 0 {
		fmt.Fprintf(&b, " p=%g q=%g", s.P, s.Q)
	}
	if s.Kind == KindMetaPath || s.Schema != "" {
		b.WriteString(" schema=[")
		for i := 0; i < len(s.Schema); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(s.Schema[i])))
		}
		b.WriteByte(']')
	}
	if s.TierBudget != 0 {
		fmt.Fprintf(&b, " tier=%d", s.TierBudget)
	}
	return b.String()
}

// ParseSpec inverts Spec.String, so diagnostics are round-trippable.
func ParseSpec(str string) (Spec, error) {
	var s Spec
	fields := strings.Fields(str)
	if len(fields) == 0 {
		return s, fmt.Errorf("sampling: empty spec string")
	}
	name := fields[0]
	if w := strings.TrimSuffix(name, "+w"); w != name {
		s.Weighted = true
		name = w
	}
	kind := Kind(-1)
	for k := KindUniform; k <= KindMetaPath; k++ {
		if k.String() == name {
			kind = k
			break
		}
	}
	if kind < 0 {
		return s, fmt.Errorf("sampling: unknown sampler kind %q", name)
	}
	s.Kind = kind
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return s, fmt.Errorf("sampling: malformed spec field %q", f)
		}
		switch key {
		case "p", "q":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return s, fmt.Errorf("sampling: bad %s value %q: %w", key, val, err)
			}
			if key == "p" {
				s.P = x
			} else {
				s.Q = x
			}
		case "schema":
			body := strings.TrimSuffix(strings.TrimPrefix(val, "["), "]")
			if len(body)+2 != len(val) {
				return s, fmt.Errorf("sampling: malformed schema %q", val)
			}
			if body == "" {
				continue
			}
			var sb strings.Builder
			for _, lab := range strings.Split(body, ",") {
				x, err := strconv.ParseUint(lab, 10, 8)
				if err != nil {
					return s, fmt.Errorf("sampling: bad schema label %q: %w", lab, err)
				}
				sb.WriteByte(byte(x))
			}
			s.Schema = sb.String()
		case "tier":
			x, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return s, fmt.Errorf("sampling: bad tier budget %q: %w", val, err)
			}
			s.TierBudget = x
		default:
			return s, fmt.Errorf("sampling: unknown spec field %q", key)
		}
	}
	return s, nil
}

// Build constructs the sampler the spec describes over g.
func (s Spec) Build(g *graph.CSR) (Sampler, error) {
	switch s.Kind {
	case KindUniform:
		return Uniform{}, nil
	case KindAlias:
		if s.TierBudget != 0 {
			return NewTieredAlias(g, s.TierBudget)
		}
		return NewAliasSampler(g)
	case KindRejection:
		// The fence index rides in the sampler, so the registry shares
		// one copy per graph across sessions and epochs.
		rej, err := NewRejection(s.P, s.Q)
		if err != nil {
			return nil, err
		}
		rej.fences = graph.NewFences(g)
		return rej, nil
	case KindReservoir:
		return NewReservoir(s.P, s.Q)
	case KindMetaPath:
		return NewMetaPath([]uint8(s.Schema))
	}
	return nil, fmt.Errorf("sampling: unknown sampler kind %d", int(s.Kind))
}

// regKey identifies one immutable sampler: the graph it was built over —
// by identity AND revision stamp, because AttachWeights/AttachLabels
// revise a CSR in place and a sampler built before such a revision must
// not be served after (the version dimension makes stale acquisitions
// miss instead of silently aliasing) — plus, for samplers derived for an
// epoch snapshot, the snapshot's epoch, and the spec.
type regKey struct {
	g     *graph.CSR
	ver   uint64
	epoch uint64
	spec  Spec
}

// regEntry is one registry slot. The sampler is built outside the
// registry lock under the once — an O(E) alias build must not stall
// acquisitions of unrelated samplers.
type regEntry struct {
	once    sync.Once
	sampler Sampler
	err     error
	refs    int
	// onEvict, when set, runs after the entry leaves the map — derived
	// snapshot samplers release their base-sampler borrow here.
	onEvict func()
}

// Registry shares immutable samplers across sessions and backends.
// Samplers are keyed by what actually determines them (graph identity,
// kind, weights, p, q, schema); Acquire returns a refcounted borrow and
// the entry is evicted when the last borrower releases it, so a sampler
// lives exactly as long as some session is using it.
type Registry struct {
	mu      sync.Mutex
	entries map[regKey]*regEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[regKey]*regEntry{}}
}

// defaultRegistry is the process-wide registry the execution layer
// borrows from.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// SamplerRef is a refcounted borrow of a registry sampler. Release it
// when the borrowing session closes; the underlying sampler is dropped
// from the registry when the last reference goes.
type SamplerRef struct {
	reg     *Registry
	key     regKey
	e       *regEntry
	release sync.Once
}

// Sampler returns the borrowed sampler. Valid until Release.
func (r *SamplerRef) Sampler() Sampler { return r.e.sampler }

// Release returns the borrow. Safe to call more than once; only the
// first call decrements.
func (r *SamplerRef) Release() {
	r.release.Do(func() { r.reg.drop(r.key, r.e) })
}

// Acquire returns a refcounted sampler for (g, spec), building it on
// first use. Concurrent acquisitions of the same key share one build;
// acquisitions of different keys never wait on each other's builds.
func (reg *Registry) Acquire(g *graph.CSR, spec Spec) (*SamplerRef, error) {
	// Injection sits before any registry mutation: a panic here leaves no
	// half-registered entry behind.
	if err := fault.Check(fault.SamplerBuild); err != nil {
		return nil, err
	}
	key := regKey{g: g, ver: g.Version(), spec: spec}
	reg.mu.Lock()
	e := reg.entries[key]
	if e == nil {
		e = &regEntry{}
		reg.entries[key] = e
	}
	e.refs++
	reg.mu.Unlock()
	e.once.Do(func() {
		e.sampler, e.err = spec.Build(g)
	})
	if e.err != nil {
		// Failed builds are evicted with their last waiter so a later
		// Acquire (e.g. after weights were attached) can retry.
		reg.drop(key, e)
		return nil, e.err
	}
	if e.sampler == nil {
		// The building goroutine panicked inside the once (and was
		// contained upstream): the once is burned but the entry holds
		// nothing. Evict so a later Acquire rebuilds instead of serving a
		// nil sampler forever.
		reg.drop(key, e)
		return nil, fmt.Errorf("sampling: sampler build for %v aborted", spec)
	}
	return &SamplerRef{reg: reg, key: key, e: e}, nil
}

// AcquireSnapshot returns a refcounted sampler serving an epoch snapshot.
// Parametric samplers (uniform, rejection, reservoir, metapath) hold no
// per-row state — the walk layer consults the overlay at sampling time —
// so they resolve to the plain (graph, spec) entry and stay shared across
// epochs. The alias kind holds O(E) row state, so a snapshot with dirty
// rows gets a per-epoch entry derived incrementally from the base
// sampler via WithRebuiltRows (base arenas shared, dirty rows rebuilt);
// when the derived entry is evicted its locator array goes back to the
// base for the next epoch, and the base borrow is released.
func (reg *Registry) AcquireSnapshot(snap *graph.Snapshot, spec Spec) (*SamplerRef, error) {
	g := snap.Graph()
	if spec.Kind != KindAlias || snap.NumDirty() == 0 {
		return reg.Acquire(g, spec)
	}
	if err := fault.Check(fault.SamplerBuild); err != nil {
		return nil, err
	}
	if spec.TierBudget != 0 {
		return nil, fmt.Errorf("sampling: tiered alias store cannot serve a dirty snapshot (use a flat spec; the graph tier keeps the budget)")
	}
	key := regKey{g: g, ver: g.Version(), epoch: snap.Epoch(), spec: spec}
	reg.mu.Lock()
	e := reg.entries[key]
	if e == nil {
		e = &regEntry{}
		reg.entries[key] = e
	}
	e.refs++
	reg.mu.Unlock()
	e.once.Do(func() {
		baseRef, err := reg.Acquire(g, spec)
		if err != nil {
			e.err = err
			return
		}
		base, ok := baseRef.Sampler().(*AliasSampler)
		if !ok {
			baseRef.Release()
			e.err = fmt.Errorf("sampling: base sampler for %v is %T, want *AliasSampler", spec, baseRef.Sampler())
			return
		}
		d, err := base.WithRebuiltRows(snap)
		if err != nil {
			baseRef.Release()
			e.err = err
			return
		}
		e.sampler = d
		e.onEvict = func() {
			base.recycle(d)
			baseRef.Release()
		}
	})
	if e.err != nil {
		reg.drop(key, e)
		return nil, e.err
	}
	if e.sampler == nil {
		// Burned once with no sampler: the deriving goroutine panicked and
		// was contained upstream (see Acquire).
		reg.drop(key, e)
		return nil, fmt.Errorf("sampling: snapshot sampler derivation for %v aborted", spec)
	}
	return &SamplerRef{reg: reg, key: key, e: e}, nil
}

// SnapshotRefs reports the reference count of snap's derived alias entry
// for spec, 0 when absent (tests and introspection).
func (reg *Registry) SnapshotRefs(snap *graph.Snapshot, spec Spec) int {
	g := snap.Graph()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if e := reg.entries[regKey{g: g, ver: g.Version(), epoch: snap.Epoch(), spec: spec}]; e != nil {
		return e.refs
	}
	return 0
}

// drop decrements an entry, evicting it when the last reference goes.
func (reg *Registry) drop(key regKey, e *regEntry) {
	reg.mu.Lock()
	e.refs--
	evicted := e.refs == 0 && reg.entries[key] == e
	if evicted {
		delete(reg.entries, key)
	}
	reg.mu.Unlock()
	if evicted && e.onEvict != nil {
		e.onEvict()
	}
}

// Len reports the number of live (referenced) samplers.
func (reg *Registry) Len() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.entries)
}

// Refs reports the reference count of (g, spec) at g's current version,
// 0 when absent (tests and introspection).
func (reg *Registry) Refs(g *graph.CSR, spec Spec) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if e := reg.entries[regKey{g: g, ver: g.Version(), spec: spec}]; e != nil {
		return e.refs
	}
	return 0
}

// Footprint reports a sampler's resident byte size: the flat alias store
// for weighted DeepWalk, the fence index for unweighted Node2Vec,
// near-zero for the other parametric samplers. Serving layers surface it
// as sampler_bytes in perf reports.
func Footprint(s Sampler) int64 {
	switch t := s.(type) {
	case *AliasSampler:
		return t.MemoryFootprint()
	case *TieredAlias:
		return t.MemoryFootprint()
	case *Rejection:
		return t.fences.Bytes()
	case *MetaPath:
		return int64(len(t.Schema))
	default:
		return 0
	}
}
