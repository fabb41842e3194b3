package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ridgewalker/internal/exec"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

func init() {
	register(Experiment{ID: "perf", Title: "Software-engine perf suite (machine-readable; see -json)",
		Run: func(c *Context, w io.Writer) error {
			rep, err := RunPerf(c)
			if err != nil {
				return err
			}
			return WritePerfTable(rep, w)
		}})
}

// PerfRecord is one measured engine configuration in the BENCH.json
// report. Steps/sec is wall-clock software throughput (the paper's
// MStep/s numerator over elapsed time); AllocsPerWalk is the measured
// heap-allocation count per served walk on the hot path (paths discarded),
// which must stay ~0 for the allocation-free engines. GoMaxProcs is the
// setting the record was measured under (the suite sweeps GOMAXPROCS ∈
// {1, N}); ParallelSpeedup, present on records with GoMaxProcs > 1, is
// this record's steps/sec over the same configuration's GOMAXPROCS=1
// record — the realized multi-core scaling. PreprocessMS is the session
// open cost — sampler construction (the flat alias store for weighted
// workloads), graph partitioning, layout building — and SamplerBytes the
// resident size of the session's registry-shared sampler state.
//
// The schema-4 memory fields appear on budget-constrained (tiered)
// records only: MemBudget is the MemoryBudgetBytes the session ran
// under, GraphBytes the tiered graph's resident size (hot arena +
// compressed cold arena + locators), SamplerBytesTiered the tiered
// sampler's resident size, and CompressionRatio the combined flat-over-
// resident byte ratio of both stores — how many times the same content
// the flat engines read fits in the tiered footprint.
//
// HubWorkload marks the hub-heavy variant: the same algorithm run as
// hubWalkLen-step ego walks restarted at the graph's top-degree
// vertices (neighbor sampling around popular nodes), the access
// pattern the hot tier is built for.
// The "cpu-hub-tiered/cpu-hub" ratio is the tiering acceptance number —
// hub-heavy steps/sec must stay within 10% of the untiered engine —
// while the plain "cpu-tiered/cpu" ratio prices the worst case, a
// uniform workload whose steady-state traffic is edge-mass distributed
// and therefore mostly cold.
type PerfRecord struct {
	Backend         string  `json:"backend"`
	Algorithm       string  `json:"algorithm"`
	Graph           string  `json:"graph"`
	Vertices        int     `json:"vertices"`
	Edges           int64   `json:"edges"`
	Shards          int     `json:"shards,omitempty"`
	Cohort          int     `json:"cohort,omitempty"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	Queries         int     `json:"queries"`
	Steps           int64   `json:"steps"`
	WallSeconds     float64 `json:"wall_seconds"`
	StepsPerSec     float64 `json:"steps_per_sec"`
	AllocsPerWalk   float64 `json:"allocs_per_walk"`
	PreprocessMS    float64 `json:"preprocess_ms"`
	SamplerBytes    int64   `json:"sampler_bytes"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`

	MemBudget          int64   `json:"mem_budget,omitempty"`
	GraphBytes         int64   `json:"graph_bytes,omitempty"`
	SamplerBytesTiered int64   `json:"sampler_bytes_tiered,omitempty"`
	CompressionRatio   float64 `json:"compression_ratio,omitempty"`
	HubWorkload        bool    `json:"hub_workload,omitempty"`
}

// SamplerBuildRecord reports the weighted-sampler preprocessing
// measurement: the flat alias store built serially (workers=1) versus by
// the degree-partitioned worker pool (workers=NumCPU) over the suite's
// weighted graph. On single-core hosts the two are expected to be at
// parity (the pool buys nothing without hardware parallelism); the
// record exists so multi-core hosts capture the realized build speedup.
type SamplerBuildRecord struct {
	Graph      string  `json:"graph"`
	Vertices   int     `json:"vertices"`
	Edges      int64   `json:"edges"`
	Workers    int     `json:"workers"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	// Speedup is SerialMS / ParallelMS.
	Speedup float64 `json:"speedup"`
	// Bytes is the store's resident size (prob+alias arenas + locators).
	Bytes int64 `json:"sampler_bytes"`
}

// configName renders the record's engine configuration compactly
// ("cpu-sharded-s4" for a four-shard run, "cpu-tiered" for a
// budget-constrained run).
func (r PerfRecord) configName() string {
	name := r.Backend
	if r.Shards > 0 {
		name = fmt.Sprintf("%s-s%d", name, r.Shards)
	}
	if r.HubWorkload {
		name += "-hub"
	}
	if r.MemBudget != 0 {
		name += "-tiered"
	}
	return name
}

// PerfReport is the BENCH.json schema: the perf trajectory record CI
// uploads per commit, and the input to cross-commit throughput tracking.
type PerfReport struct {
	Schema     int    `json:"schema"`
	Graph      string `json:"graph"`
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
	Queries    int    `json:"queries"`
	WalkLength int    `json:"walk_length"`
	Seed       uint64 `json:"seed"`
	// GoMaxProcs is the host's available processor count; Procs lists the
	// GOMAXPROCS settings the suite swept (each record carries its own).
	GoMaxProcs int   `json:"gomaxprocs"`
	Procs      []int `json:"procs"`
	// Records holds one entry per backend × algorithm × procs
	// configuration.
	Records []PerfRecord `json:"records"`
	// Planner (schema 5) holds one regret cell per algorithm × procs:
	// the "auto" backend's realized throughput against the best
	// hand-picked configuration from Records on the same queries.
	Planner []PlannerRecord `json:"planner,omitempty"`
	// SamplerBuild is the alias-store preprocessing measurement, emitted
	// when the sweep includes DeepWalk (the workload whose sampler is the
	// O(E) flat alias store); other weighted workloads (node2vec's
	// reservoir) have no prebuilt store to measure.
	SamplerBuild *SamplerBuildRecord `json:"sampler_build,omitempty"`
	// Mutation is the dynamic-graph maintenance measurement (incremental
	// dirty-row sampler rebuild vs cold O(E) rebuild), emitted alongside
	// SamplerBuild when the sweep includes DeepWalk.
	Mutation *MutationRecord `json:"mutation,omitempty"`
	// Serve (schema 6) is the overload-serving measurement: closed-loop
	// saturation rate plus the open-loop load sweep against the Service's
	// feedback-derived admission budget (see ServeRecord).
	Serve *ServeRecord `json:"serve,omitempty"`
	// Ratios normalizes each configuration to the flat cpu baseline per
	// algorithm at the same GOMAXPROCS (steps/sec over steps/sec), e.g.
	// "cpu-pipelined/cpu URW": 1.31 (GOMAXPROCS=1) or
	// "cpu-sharded-s4/cpu URW @p4": 0.34 (GOMAXPROCS=4).
	Ratios map[string]float64 `json:"ratios"`
	// PeakRSSMB is the process's peak resident set (/proc/self/status
	// VmHWM) sampled after the sweep, in MiB. The high-water mark is
	// monotonic over the process lifetime, so it bounds the whole suite —
	// graph generation included — rather than any single configuration;
	// its value is catching footprint growth across commits at fixed
	// workload parameters. 0 where the proc interface is unavailable.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

// perfConfigs lists the software-engine configurations the suite sweeps.
// The tiered entry reruns the flat-cpu workload under the auto memory
// budget (hot hubs in the uncompressed arena, cold tail through the
// delta-varint decode path), so every report prices the tiering's
// throughput cost next to its footprint saving. The hub pair measures
// the same engines on the hub-heavy workload (short walks seeded at the
// top-degree vertices), whose traffic the hot tier is sized to absorb.
// The sharded rows pin their shard count and cohort width, so the planner
// regret gate prices the planner against the sharded engine too.
var perfConfigs = []struct {
	backend string
	shards  int
	cohort  int
	tiered  bool
	hub     bool
}{
	{backend: "cpu"},
	{backend: "cpu", tiered: true},
	{backend: "cpu", hub: true},
	{backend: "cpu", hub: true, tiered: true},
	{backend: "cpu-pipelined", cohort: exec.DefaultCohort},
	{backend: "cpu-sharded", cohort: exec.DefaultCohort, shards: 2},
	{backend: "cpu-sharded", cohort: exec.DefaultCohort, shards: 4},
}

// perfProcs returns the GOMAXPROCS sweep: the configured list, or
// {1, NumCPU} deduplicated.
func perfProcs(opts Options) []int {
	if len(opts.Procs) > 0 {
		return opts.Procs
	}
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// perfAlgorithms returns the GRW workload sweep: the configured list, or
// {URW, DeepWalk}.
func perfAlgorithms(opts Options) ([]walk.Algorithm, error) {
	if len(opts.Algorithms) == 0 {
		return []walk.Algorithm{walk.URW, walk.DeepWalk}, nil
	}
	var out []walk.Algorithm
	for _, name := range opts.Algorithms {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "urw":
			out = append(out, walk.URW)
		case "ppr":
			out = append(out, walk.PPR)
		case "deepwalk":
			out = append(out, walk.DeepWalk)
		case "node2vec":
			out = append(out, walk.Node2Vec)
		default:
			return nil, fmt.Errorf("bench: unknown perf algorithm %q (have urw, ppr, deepwalk, node2vec)", name)
		}
	}
	return out, nil
}

// measureSamplerBuild times the flat alias store's construction over the
// weighted graph, serial versus the full worker pool, keeping the best
// of repeat repetitions of each.
func measureSamplerBuild(gw *graph.CSR, name string, repeat int) (*SamplerBuildRecord, error) {
	if repeat < 1 {
		repeat = 1
	}
	workers := runtime.NumCPU()
	// Pin GOMAXPROCS for the measurement: the caller's procs sweep may
	// have left it at any value (a sweep ending in 1 would run the
	// "parallel" build on a single P and report a bogus ~1.0x).
	prevProcs := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prevProcs)
	// One untimed warm-up so the serial measurement does not absorb the
	// first-touch page faults of the arena working set.
	if _, err := sampling.NewAliasSamplerWorkers(gw, workers); err != nil {
		return nil, err
	}
	best := func(w int) (float64, int64, error) {
		bestMS := math.Inf(1)
		var bytes int64
		for i := 0; i < repeat; i++ {
			start := time.Now()
			s, err := sampling.NewAliasSamplerWorkers(gw, w)
			if err != nil {
				return 0, 0, err
			}
			if ms := float64(time.Since(start)) / float64(time.Millisecond); ms < bestMS {
				bestMS = ms
			}
			bytes = s.MemoryFootprint()
		}
		return bestMS, bytes, nil
	}
	serial, bytes, err := best(1)
	if err != nil {
		return nil, err
	}
	parallel, _, err := best(workers)
	if err != nil {
		return nil, err
	}
	return &SamplerBuildRecord{
		Graph:      name,
		Vertices:   gw.NumVertices,
		Edges:      gw.NumEdges(),
		Workers:    workers,
		SerialMS:   serial,
		ParallelMS: parallel,
		Speedup:    serial / parallel,
		Bytes:      bytes,
	}, nil
}

// RunPerf measures the software engines on an RMAT graph scaled by
// Options.Shrink (scale 22 at shrink 0 — the acceptance sweep's graph —
// down to a CI-friendly size at larger shrinks) across the GOMAXPROCS
// sweep and returns the report.
func RunPerf(c *Context) (*PerfReport, error) {
	scale := 22 - c.Opts.Shrink
	if scale < 10 {
		scale = 10
	}
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, c.Opts.Seed))
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("rmat-%d-graph500", scale)
	procs := perfProcs(c.Opts)
	rep := &PerfReport{
		Schema:     6,
		Graph:      name,
		Vertices:   g.NumVertices,
		Edges:      g.NumEdges(),
		WalkLength: c.Opts.WalkLength,
		Seed:       c.Opts.Seed,
		GoMaxProcs: runtime.NumCPU(),
		Procs:      procs,
		Ratios:     map[string]float64{},
	}
	algs, err := perfAlgorithms(c.Opts)
	if err != nil {
		return nil, err
	}
	// One weighted twin shared by every weighted workload, so their
	// sessions also share one registry sampler store per spec.
	var weighted *graph.CSR
	weightedTwin := func() *graph.CSR {
		if weighted == nil {
			weighted = Weighted(g)
		}
		return weighted
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, alg := range algs {
		gw := g
		if alg == walk.DeepWalk || alg == walk.Node2Vec {
			// Weighted twin: DeepWalk draws from the flat alias store,
			// Node2Vec takes the weighted-reservoir path.
			gw = weightedTwin()
		}
		if alg == walk.DeepWalk && rep.SamplerBuild == nil {
			sb, err := measureSamplerBuild(gw, name, c.Opts.Repeat)
			if err != nil {
				return nil, err
			}
			rep.SamplerBuild = sb
			mut, err := MeasureMutation(gw, name, c.Opts.Repeat)
			if err != nil {
				return nil, err
			}
			rep.Mutation = mut
		}
		wcfg := walk.DefaultConfig(alg)
		wcfg.WalkLength = c.Opts.WalkLength
		wcfg.Seed = c.Opts.Seed
		qs, err := walk.RandomQueries(gw, wcfg, c.Opts.Queries, c.Opts.Seed^0xabcd)
		if err != nil {
			return nil, err
		}
		rep.Queries = len(qs)
		hcfg, hqs := hubWorkload(gw, wcfg, len(qs))
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			for _, pc := range perfConfigs {
				var budget int64
				if pc.tiered {
					budget = graph.AutoMemoryBudget(gw)
				}
				mcfg, mqs := wcfg, qs
				if pc.hub {
					mcfg, mqs = hcfg, hqs
				}
				rec, err := measure(pc.backend, gw, mcfg, mqs, pc.shards, pc.cohort, budget, c.Opts.Repeat)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return nil, err
				}
				rec.HubWorkload = pc.hub
				rec.Graph, rec.Vertices, rec.Edges = name, g.NumVertices, g.NumEdges()
				rep.Records = append(rep.Records, rec)
			}
			// One planner cell per algorithm × procs: the "auto" backend
			// races the cell's best sweep configuration in a paired
			// measurement on the same queries.
			pcell, err := plannerCell(rep, name, gw, wcfg, qs, c.Opts.Repeat)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			rep.Planner = append(rep.Planner, pcell)
		}
	}
	runtime.GOMAXPROCS(prev)
	// The serving measurement runs at the host's full GOMAXPROCS (it
	// exercises the Service front door, not a swept engine shape) on the
	// suite's unweighted graph.
	srec, err := runServe(g, name, c.Opts)
	if err != nil {
		return nil, err
	}
	rep.Serve = srec
	finishReport(rep)
	rep.PeakRSSMB = peakRSSMB()
	return rep, nil
}

// Hub-workload shape: walks of hubWalkLen steps seeded round-robin at
// the hubSeeds top-degree vertices, hubQueryMult times the base query
// count (short walks need more of them for a stable wall-clock). Walk
// length 2 is the canonical serving shape — two-hop ego/neighbor
// sampling around popular vertices, the GraphSAGE-style fan-out a
// front-end issues for trending content — and it is what keeps the
// traffic actually hub-heavy: a random walk mixes to the graph's
// edge-mass distribution within a few steps, so every step past the
// first hop reads mostly cold rows no matter where the walk started.
const (
	hubWalkLen   = 2
	hubSeeds     = 64
	hubQueryMult = 16
)

// hubWorkload derives the hub-heavy variant of a workload: same
// algorithm and seed, hubWalkLen-step walks from the top-degree rows.
func hubWorkload(g *graph.CSR, wcfg walk.Config, nq int) (walk.Config, []walk.Query) {
	hcfg := wcfg
	hcfg.WalkLength = hubWalkLen
	order := make([]graph.VertexID, g.NumVertices)
	for v := range order {
		order[v] = graph.VertexID(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	k := hubSeeds
	if k > len(order) {
		k = len(order)
	}
	hqs := make([]walk.Query, nq*hubQueryMult)
	for i := range hqs {
		hqs[i] = walk.Query{ID: uint32(i), Start: order[i%k]}
	}
	return hcfg, hqs
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/self/status (VmHWM, reported in KiB) and converts to MiB.
// Returns 0 on platforms without the proc interface.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// finishReport derives the cpu-normalized ratios and the per-record
// parallel speedups from the raw records.
func finishReport(rep *PerfReport) {
	type baseKey struct {
		alg   string
		procs int
		hub   bool
	}
	// Flat cpu steps/sec per (algorithm, procs, workload): hub records
	// normalize against the hub-workload cpu run — the two workloads walk
	// different traffic, so their numbers must not be mixed.
	base := map[baseKey]float64{}
	type cfgKey struct {
		backend string
		alg     string
		shards  int
		cohort  int
		tiered  bool
		hub     bool
	}
	single := map[cfgKey]float64{} // GOMAXPROCS=1 steps/sec per configuration
	for _, r := range rep.Records {
		if r.Backend == "cpu" && r.Shards == 0 && r.MemBudget == 0 {
			base[baseKey{r.Algorithm, r.GoMaxProcs, r.HubWorkload}] = r.StepsPerSec
		}
		if r.GoMaxProcs == 1 {
			single[cfgKey{r.Backend, r.Algorithm, r.Shards, r.Cohort, r.MemBudget != 0, r.HubWorkload}] = r.StepsPerSec
		}
	}
	for i := range rep.Records {
		r := &rep.Records[i]
		if b := base[baseKey{r.Algorithm, r.GoMaxProcs, r.HubWorkload}]; b > 0 && !(r.Backend == "cpu" && r.Shards == 0 && r.MemBudget == 0) {
			den := "cpu"
			if r.HubWorkload {
				den = "cpu-hub"
			}
			key := fmt.Sprintf("%s/%s %s", r.configName(), den, r.Algorithm)
			if r.GoMaxProcs > 1 {
				key += fmt.Sprintf(" @p%d", r.GoMaxProcs)
			}
			rep.Ratios[key] = r.StepsPerSec / b
		}
		if r.GoMaxProcs > 1 {
			if s := single[cfgKey{r.Backend, r.Algorithm, r.Shards, r.Cohort, r.MemBudget != 0, r.HubWorkload}]; s > 0 {
				r.ParallelSpeedup = r.StepsPerSec / s
			}
		}
	}
}

// measure runs one backend configuration (after a small warm-up batch
// that also triggers lazy setup) and records wall-clock throughput and
// per-walk allocations under the current GOMAXPROCS. With repeat > 1 the
// batch is measured that many times and the best repetition is kept —
// downward outliers on shared machines are scheduling noise, which the
// regression gate must not mistake for a code regression.
func measure(backend string, g *graph.CSR, wcfg walk.Config, qs []walk.Query, shards, cohort int, budget int64, repeat int) (PerfRecord, error) {
	if repeat < 1 {
		repeat = 1
	}
	openStart := time.Now()
	ses, err := exec.Open(backend, g, exec.Config{
		Walk: wcfg, Shards: shards, Cohort: cohort, DiscardPaths: true,
		MemoryBudgetBytes: budget,
	})
	preprocess := time.Since(openStart)
	if err != nil {
		return PerfRecord{}, err
	}
	defer ses.Close()
	var samplerBytes int64
	if sizer, ok := ses.(exec.SamplerSizer); ok {
		samplerBytes = sizer.SamplerBytes()
	}
	warm := len(qs) / 10
	if warm < 1 {
		warm = 1
	}
	warmRes, err := ses.Run(context.Background(), exec.Batch{Queries: qs[:warm]})
	if err != nil {
		return PerfRecord{}, err
	}
	best := PerfRecord{
		Backend:      backend,
		Algorithm:    wcfg.Algorithm.String(),
		Shards:       shards,
		Cohort:       cohort,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Queries:      len(qs),
		PreprocessMS: float64(preprocess) / float64(time.Millisecond),
		SamplerBytes: samplerBytes,
		MemBudget:    budget,
	}
	if m := warmRes.Memory; m != nil && budget != 0 {
		best.GraphBytes = m.GraphBytes
		best.SamplerBytesTiered = m.SamplerBytes
		if resident := m.TotalBytes(); resident > 0 {
			best.CompressionRatio = float64(m.GraphFlatBytes+m.SamplerFlatBytes) / float64(resident)
		}
	}
	for i := 0; i < repeat; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := ses.Run(context.Background(), exec.Batch{Queries: qs})
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return PerfRecord{}, err
		}
		sps := float64(res.Steps) / el.Seconds()
		if sps > best.StepsPerSec {
			best.Steps = res.Steps
			best.WallSeconds = el.Seconds()
			best.StepsPerSec = sps
			best.AllocsPerWalk = float64(after.Mallocs-before.Mallocs) / float64(len(qs))
		}
	}
	return best, nil
}

// WritePerfTable renders the report as the usual aligned text table.
func WritePerfTable(rep *PerfReport, w io.Writer) error {
	t := newTable(w, fmt.Sprintf("Software-engine perf — %s (%d vertices, %d edges), %d queries × len %d, procs %v",
		rep.Graph, rep.Vertices, rep.Edges, rep.Queries, rep.WalkLength, rep.Procs))
	t.row("backend", "alg", "shards", "cohort", "procs", "MStep/s", "allocs/walk", "prep ms", "sampler KiB", "speedup", "mem")
	for _, r := range rep.Records {
		speedup := "-"
		if r.ParallelSpeedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.ParallelSpeedup)
		}
		mem := "-"
		if r.MemBudget != 0 {
			mem = fmt.Sprintf("tiered %dKiB %.1fx", (r.GraphBytes+r.SamplerBytesTiered)>>10, r.CompressionRatio)
		}
		t.row(r.Backend, r.Algorithm, r.Shards, r.Cohort, r.GoMaxProcs,
			r.StepsPerSec/1e6, r.AllocsPerWalk,
			fmt.Sprintf("%.1f", r.PreprocessMS), r.SamplerBytes>>10, speedup, mem)
	}
	if err := t.flush(); err != nil {
		return err
	}
	if rep.PeakRSSMB > 0 {
		fmt.Fprintf(w, "peak RSS: %.1f MiB (process high-water mark, whole suite)\n", rep.PeakRSSMB)
	}
	if sb := rep.SamplerBuild; sb != nil {
		fmt.Fprintf(w, "sampler build (alias store, %d edges): serial %.1f ms, parallel(%d workers) %.1f ms, %.2fx, %d KiB\n",
			sb.Edges, sb.SerialMS, sb.Workers, sb.ParallelMS, sb.Speedup, sb.Bytes>>10)
	}
	if mu := rep.Mutation; mu != nil {
		fmt.Fprintf(w, "mutation maintenance (%d edges mutated, %d dirty rows): incremental %.3f ms vs cold rebuild %.3f ms — %.1fx, dirty fraction %.5f\n",
			mu.MutatedEdges, mu.DirtyRows, mu.IncrementalMS, mu.ColdRebuildMS, mu.Speedup, mu.DirtyFraction)
	}
	if sv := rep.Serve; sv != nil {
		fmt.Fprintf(w, "serving: saturation %.0f req/s (%d queries/request); budget %d queries",
			sv.SaturationRPS, sv.RequestQueries, sv.Budget)
		for _, p := range sv.Points {
			fmt.Fprintf(w, "; %.1fx load → %.0f rps goodput, %.0f%% shed, p99 %.2f ms (shed p99 %.3f ms)",
				p.LoadFactor, p.GoodputRPS, 100*p.ShedRate, p.P99MS, p.ShedP99MS)
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(rep.Ratios))
	for k := range rep.Ratios {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %.2fx\n", k, rep.Ratios[k])
	}
	return nil
}

// WritePerfJSON writes the report as indented JSON to path (BENCH.json).
func WritePerfJSON(rep *PerfReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPerfJSON loads a previously written BENCH.json report.
func ReadPerfJSON(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return rep, nil
}
