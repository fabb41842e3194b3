// Command ridgewalker runs graph random walks on any of the repository's
// execution backends — the cycle-level RidgeWalker accelerator model, the
// multi-core software engine, or the modeled baseline systems — selected
// by name, either as a one-shot batch or through the batched serving
// frontend.
//
// Usage:
//
//	ridgewalker -graph WG -alg urw -queries 2000 -len 80
//	ridgewalker -graph rmat:14,8,graph500 -alg ppr -platform U250
//	ridgewalker -graph /path/to/graph.rwg -alg node2vec -backend cpu
//	ridgewalker -graph WG -alg urw -backend lightrw
//	ridgewalker -graph WG -alg urw -backend cpu-sharded -shards 8
//	ridgewalker -graph WG -alg urw -backend cpu-pipelined -cohort 128
//	ridgewalker -graph WG -alg urw -backend auto -explain-plan
//	ridgewalker -graph WG -alg ppr -backend cpu -serve -requests 32
//	ridgewalker -graph WG -alg urw -backend cpu-pipelined -cpuprofile cpu.pprof
//	ridgewalker -list-backends
//
// The -graph argument accepts a dataset twin name (WG, CP, AS, LJ, AB, UK),
// an inline RMAT spec "rmat:scale,edgefactor[,balanced|graph500]", or a
// path to a binary graph written by graphgen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ridgewalker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ridgewalker:", err)
		os.Exit(1)
	}
}

func run() error {
	graphSpec := flag.String("graph", "WG", "dataset twin name, rmat:scale,ef[,kind], or .rwg path")
	algName := flag.String("alg", "urw", "urw | ppr | deepwalk | node2vec | metapath")
	queries := flag.Int("queries", 2000, "number of walk queries")
	length := flag.Int("len", 80, "maximum walk length")
	platform := flag.String("platform", "U55C", "U55C | U50 | U280 | U250 | VCK5000")
	backendName := flag.String("backend", "", "execution backend: "+strings.Join(ridgewalker.Backends(), " | ")+" (overrides -engine)")
	engine := flag.String("engine", "sim", "deprecated alias: sim (accelerator model) | cpu (software engine)")
	listBackends := flag.Bool("list-backends", false, "list execution backends and exit")
	alpha := flag.Float64("alpha", 0.2, "PPR teleport probability")
	p := flag.Float64("p", 2, "Node2Vec return parameter")
	q := flag.Float64("q", 0.5, "Node2Vec in-out parameter")
	shrink := flag.Int("shrink", 3, "scale levels to shrink dataset twins by")
	seed := flag.Uint64("seed", 1, "random seed")
	pathsOut := flag.String("paths", "", "write one walk per line to this file")
	noAsync := flag.Bool("no-async", false, "disable the asynchronous access engine (ablation)")
	noSched := flag.Bool("no-sched", false, "disable the zero-bubble scheduler (ablation)")
	workers := flag.Int("workers", 0, "cpu backend worker-pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "cpu-sharded partition count (0 = backend default; one-shot runs only)")
	cohort := flag.Int("cohort", 0, "cpu-pipelined/cpu-sharded in-flight walkers per worker (0 = backend default)")
	memBudget := flag.String("membudget", "", "cpu backends' tiered-memory hot budget in bytes, or 'auto' (empty = flat stores)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	serve := flag.Bool("serve", false, "run the workload through the batched serving frontend")
	requests := flag.Int("requests", 16, "serve mode: concurrent requests the workload is split into")
	maxBatch := flag.Int("max-batch", 4096, "serve mode: max queries coalesced per backend dispatch")
	maxInflight := flag.String("max-inflight", "", "serve mode: in-flight query budget — 'auto' (feedback-derived), a count, or empty for unbounded")
	laneName := flag.String("lane", "interactive", "serve mode: priority lane (interactive | bulk)")
	laneWeights := flag.String("lane-weights", "", "serve mode: interactive:bulk drain ratio, e.g. 4:1 (empty = default)")
	tenant := flag.String("tenant", "", "serve mode: tenant name for quota accounting")
	tenantQPS := flag.Float64("tenant-qps", 0, "serve mode: default per-tenant quota in queries/sec (0 = unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "serve mode: default per-tenant burst depth in queries")
	deadline := flag.Duration("deadline", 0, "serve mode: per-request deadline (0 = none); infeasible requests shed fast")
	mutIns := flag.Int("mutate-insert", 0, "serve mode: insert this many random edges between serving rounds (versioned-graph serving)")
	mutDel := flag.Int("mutate-delete", 0, "serve mode: then delete this many of the inserted edges")
	mutCompact := flag.Bool("mutate-compact", false, "serve mode: compact the mutated graph and serve a final round")
	explainPlan := flag.Bool("explain-plan", false, "auto backend: print the planner's decision record (class, plan, reason)")
	chaos := flag.String("chaos", "", "serve mode: arm deterministic fault injection, e.g. 'batch-exec=panic:every=3,cold-decode=error:after=5' (comma-separated point=mode[:every=N][:after=N][:limit=N][:tag=backend])")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ridgewalker: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ridgewalker: memprofile:", err)
			}
		}()
	}

	if *listBackends {
		for _, name := range ridgewalker.Backends() {
			b, err := ridgewalker.BackendByName(name)
			if err != nil {
				return err
			}
			mark := ""
			if ridgewalker.BackendCapabilities(name).MemoryTiering {
				mark = "  [tiered-mem]"
			}
			if name == "auto" {
				mark += "  [planned]"
			}
			fmt.Printf("%-13s %s%s\n", name, b.Description(), mark)
		}
		fmt.Println("\n[tiered-mem] backends honor -membudget: hot rows stay in an")
		fmt.Println("uncompressed arena, the cold tail is delta-varint compressed, and the")
		fmt.Println("per-tier accounting (hot arena, compressed cold arena, locators,")
		fmt.Println("per-worker decode scratch) is reported after each run.")
		fmt.Println("\n[planned] runs cpu-pipelined at -cohort (default 256); a Service demotes a")
		fmt.Println("faulting query class to cpu until a health check restores it. The plan and")
		fmt.Println("its observed steps/sec are reported after each run (-explain-plan: why).")
		return nil
	}

	backend := *backendName
	if backend == "" {
		switch *engine {
		case "sim":
			backend = "ridgewalker"
		case "cpu":
			backend = "cpu"
		default:
			return fmt.Errorf("unknown engine %q (use -backend)", *engine)
		}
	}

	alg, err := parseAlg(*algName)
	if err != nil {
		return err
	}
	g, err := loadGraph(*graphSpec, *shrink, *seed)
	if err != nil {
		return err
	}
	cfg := ridgewalker.DefaultWalkConfig(alg)
	cfg.WalkLength = *length
	cfg.Alpha = *alpha
	cfg.P, cfg.Q = *p, *q
	cfg.Seed = *seed
	if alg == ridgewalker.DeepWalk || alg == ridgewalker.MetaPath {
		g.AttachWeights()
	}
	if alg == ridgewalker.MetaPath {
		g.AttachLabels(3)
	}
	plat, err := ridgewalker.PlatformByName(*platform)
	if err != nil {
		return err
	}
	qs, err := ridgewalker.RandomQueries(g, cfg, *queries, *seed^0xfeed)
	if err != nil {
		return err
	}
	budget, err := parseMemBudget(*memBudget, g)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges; algorithm: %s; backend: %s; %d queries × len %d\n",
		g.NumVertices, g.NumEdges(), alg, backend, len(qs), *length)
	if budget != 0 {
		fmt.Printf("memory budget: %d bytes (tiered hot arenas + compressed cold tail)\n", budget)
	}

	if *explainPlan && backend != "auto" {
		return fmt.Errorf("-explain-plan requires -backend auto")
	}
	if *chaos != "" {
		if !*serve {
			// Outside the serving frontend there are no containment
			// boundaries, breakers, or watchdogs — an injected panic would
			// just crash the process, which demonstrates nothing.
			return fmt.Errorf("-chaos requires -serve (fault isolation lives in the serving frontend)")
		}
		points, err := ridgewalker.ParseFaultInjection(*chaos)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		defer ridgewalker.DisableFaultInjection()
		names := make([]string, len(points))
		for i, p := range points {
			names[i] = string(p)
		}
		fmt.Printf("chaos: armed %s\n", strings.Join(names, ", "))
	}
	if *serve {
		if *shards != 0 {
			return fmt.Errorf("-shards applies to one-shot -backend cpu-sharded runs, not -serve")
		}
		inflight, err := parseMaxInflight(*maxInflight)
		if err != nil {
			return err
		}
		lane, err := parseLane(*laneName)
		if err != nil {
			return err
		}
		iw, bw, err := parseLaneWeights(*laneWeights)
		if err != nil {
			return err
		}
		cfg.Lane = lane
		cfg.Tenant = *tenant
		return runServe(g, cfg, qs, *explainPlan, ridgewalker.ServiceConfig{
			Backend:             backend,
			Platform:            plat,
			Workers:             *workers,
			Cohort:              *cohort,
			MemoryBudgetBytes:   budget,
			MaxBatch:            *maxBatch,
			MaxInFlight:         inflight,
			InteractiveWeight:   iw,
			BulkWeight:          bw,
			TenantQuota:         ridgewalker.TenantQuota{QPS: *tenantQPS, Burst: *tenantBurst},
			DisableAsync:        *noAsync,
			DisableDynamicSched: *noSched,
		}, *requests, *pathsOut, *deadline, mutationPlan{
			inserts: *mutIns,
			deletes: *mutDel,
			compact: *mutCompact,
			seed:    *seed,
		})
	}
	if *mutIns != 0 || *mutDel != 0 || *mutCompact {
		return fmt.Errorf("-mutate-insert/-mutate-delete/-mutate-compact require -serve")
	}

	bcfg := ridgewalker.BackendConfig{
		Walk:                cfg,
		Platform:            plat,
		Workers:             *workers,
		Shards:              *shards,
		Cohort:              *cohort,
		MemoryBudgetBytes:   budget,
		DisableAsync:        *noAsync,
		DisableDynamicSched: *noSched,
	}
	if *explainPlan {
		rec, err := ridgewalker.ExplainPlan(g, bcfg)
		if err != nil {
			return err
		}
		fmt.Print(rec)
	}
	ses, err := ridgewalker.OpenBackend(backend, g, bcfg)
	if err != nil {
		return err
	}
	defer ses.Close()
	start := time.Now()
	res, err := ses.Run(context.Background(), ridgewalker.Batch{Queries: qs})
	if err != nil {
		return err
	}
	el := time.Since(start)
	if res.Sim != nil {
		st := res.Sim
		fmt.Printf("simulated %s: %d steps in %d cycles (%.3f ms at %v MHz)\n",
			st.Platform.Name, st.Steps, st.Cycles, 1e3*st.Seconds(), st.Platform.CoreMHz)
		fmt.Printf("throughput: %.0f MStep/s  effective bw: %.2f GB/s  Eq.(1) utilization: %.0f%%\n",
			st.ThroughputMSteps(), st.EffectiveBandwidthGBs(), 100*st.Eq1Utilization())
		fmt.Printf("wall time: %v  (simulation, not hardware)\n", el.Round(time.Millisecond))
	}
	if res.Model != nil {
		m := res.Model
		fmt.Printf("modeled %s: %.0f MStep/s  effective bw: %.2f GB/s  bubble ratio: %.1f%%\n",
			m.System, m.ThroughputMSteps, m.EffectiveBandwidthGBs, 100*m.BubbleRatio)
	}
	if res.Sim == nil && res.Model == nil {
		fmt.Printf("cpu engine (%d workers): %d steps in %v (%.1f MStep/s wall)\n",
			effectiveWorkers(*workers), res.Steps, el.Round(time.Millisecond),
			float64(res.Steps)/el.Seconds()/1e6)
	}
	if pr := res.Plan; pr != nil {
		fmt.Printf("plan: %s  observed %.3g steps/s (%s)\n",
			planShape(pr), pr.ObservedStepsPerSec, pr.Source)
	}
	if m := res.Memory; m != nil {
		fmt.Printf("tiered memory: %d B resident (flat %d B)\n",
			m.TotalBytes(), m.GraphFlatBytes+m.SamplerFlatBytes)
		fmt.Printf("  graph: %d hot rows / %d cold rows, %d B (cold tail %.2fx smaller)\n",
			m.GraphHotRows, m.GraphColdRows, m.GraphBytes, m.GraphColdRatio)
		if m.SamplerBudget != 0 {
			fmt.Printf("  sampler: %d hot rows / %d cold rows, %d B (cold rows %.2fx smaller)\n",
				m.SamplerHotRows, m.SamplerColdRows, m.SamplerBytes, m.SamplerColdRatio)
		}
		fmt.Printf("  decode scratch: ≤%d B per worker\n", m.ScratchBoundPerWorker)
	}
	return writePaths(*pathsOut, res.Paths)
}

// parseMaxInflight resolves the -max-inflight flag: empty = unbounded,
// "auto" = the Theorem VI.1 feedback-derived budget, otherwise a count.
func parseMaxInflight(s string) (int, error) {
	switch s {
	case "":
		return 0, nil
	case "auto":
		return ridgewalker.AutoInFlight, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("max-inflight: %q, want 'auto' or a positive count", s)
	}
	return n, nil
}

// parseLane resolves the -lane flag.
func parseLane(s string) (ridgewalker.Lane, error) {
	switch strings.ToLower(s) {
	case "interactive":
		return ridgewalker.LaneInteractive, nil
	case "bulk":
		return ridgewalker.LaneBulk, nil
	}
	return 0, fmt.Errorf("unknown lane %q (interactive | bulk)", s)
}

// parseLaneWeights resolves the -lane-weights flag ("I:B"); empty keeps
// the service default.
func parseLaneWeights(s string) (interactive, bulk int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("lane-weights: %q, want I:B (e.g. 4:1)", s)
	}
	interactive, err = strconv.Atoi(parts[0])
	if err == nil {
		bulk, err = strconv.Atoi(parts[1])
	}
	if err != nil || interactive < 1 || bulk < 1 {
		return 0, 0, fmt.Errorf("lane-weights: %q, want two positive integers I:B", s)
	}
	return interactive, bulk, nil
}

// parseMemBudget resolves the -membudget flag: empty = off, "auto" =
// graph.AutoMemoryBudget, otherwise a byte count (negative = all-cold,
// for footprint measurement).
func parseMemBudget(s string, g *ridgewalker.Graph) (int64, error) {
	switch s {
	case "":
		return 0, nil
	case "auto":
		return ridgewalker.AutoMemoryBudget(g), nil
	}
	b, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("membudget: %w", err)
	}
	return b, nil
}

// mutationPlan is the serve-mode edge-mutation schedule: a round of
// random inserts, an optional round of deletes over the inserted edges,
// and an optional final compaction — each followed by re-serving the
// workload at the new epoch.
type mutationPlan struct {
	inserts int
	deletes int
	compact bool
	seed    uint64
}

func (p mutationPlan) active() bool { return p.inserts > 0 || p.deletes > 0 || p.compact }

// randomEdges derives n deterministic pseudo-random edges over g's vertex
// range (a splitmix-style hash of the seed, so runs are reproducible).
func randomEdges(g *ridgewalker.Graph, n int, seed uint64) []ridgewalker.Edge {
	edges := make([]ridgewalker.Edge, n)
	x := seed ^ 0x9e3779b97f4a7c15
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	nv := uint64(g.NumVertices)
	for i := range edges {
		edges[i] = ridgewalker.Edge{
			Src: ridgewalker.VertexID(next() % nv),
			Dst: ridgewalker.VertexID(next() % nv),
		}
	}
	return edges
}

// runServe splits the workload into concurrent requests against a batched
// Service and reports the served-query metrics. With an active mutation
// plan it re-serves the workload after each mutation phase, exercising
// epoch-snapshot serving and incremental sampler maintenance end to end.
// planShape renders a plan report's chosen engine and shape.
func planShape(pr *ridgewalker.PlanReport) string {
	s := pr.Backend
	if pr.Cohort > 0 {
		s += fmt.Sprintf(" c%d", pr.Cohort)
	}
	if pr.MemoryBudgetBytes != 0 {
		s += fmt.Sprintf(" budget=%dB", pr.MemoryBudgetBytes)
	}
	return s
}

func runServe(g *ridgewalker.Graph, cfg ridgewalker.WalkConfig, qs []ridgewalker.Query,
	explainPlan bool, scfg ridgewalker.ServiceConfig, requests int, pathsOut string,
	deadline time.Duration, plan mutationPlan) error {
	if requests < 1 {
		return fmt.Errorf("serve: requests %d, want >= 1", requests)
	}
	svc, err := ridgewalker.NewService(g, scfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	paths, err := serveRound(svc, cfg, qs, requests, len(qs), deadline, pathsOut != "")
	if err != nil {
		return err
	}
	if plan.active() {
		if plan.inserts > 0 {
			ins := randomEdges(g, plan.inserts, plan.seed)
			if err := svc.InsertEdges(ins); err != nil {
				return fmt.Errorf("mutate: %w", err)
			}
			if plan.deletes > 0 {
				if plan.deletes > len(ins) {
					return fmt.Errorf("mutate: -mutate-delete %d > -mutate-insert %d (only inserted edges are deleted)", plan.deletes, plan.inserts)
				}
				if err := svc.DeleteEdges(ins[:plan.deletes]); err != nil {
					return fmt.Errorf("mutate: %w", err)
				}
			}
		} else if plan.deletes > 0 {
			return fmt.Errorf("mutate: -mutate-delete needs -mutate-insert (only inserted edges are deleted)")
		}
		st := svc.GraphStats()
		fmt.Printf("mutated: epoch %d, %d dirty rows (+%d edges, -%d edges)\n",
			st.Epoch, st.DirtyRows, st.Inserts, st.Deletes)
		if _, err := serveRound(svc, cfg, qs, requests, len(qs), deadline, false); err != nil {
			return err
		}
		if plan.compact {
			svc.CompactGraph()
			st = svc.GraphStats()
			fmt.Printf("compacted: epoch %d, %d compactions\n", st.Epoch, st.Compactions)
			if _, err := serveRound(svc, cfg, qs, requests, len(qs), deadline, false); err != nil {
				return err
			}
		}
	}
	if explainPlan {
		rec, err := svc.ExplainPlan(cfg)
		if err != nil {
			return err
		}
		fmt.Print(rec)
	}
	for _, ps := range svc.PlanStatus() {
		fmt.Printf("plan %-20s → %s\n", ps.Class, ps.Plan)
	}
	m := svc.Metrics()
	for name, c := range m.PerBackend {
		fmt.Printf("backend %-12s requests=%d queries=%d steps=%d batches=%d\n",
			name, c.Requests, c.Queries, c.Steps, c.Batches)
	}
	for name, c := range m.PerAlgorithm {
		fmt.Printf("algorithm %-10s requests=%d queries=%d steps=%d batches=%d\n",
			name, c.Requests, c.Queries, c.Steps, c.Batches)
	}
	if len(m.PerEpoch) > 1 || plan.active() {
		for epoch, c := range m.PerEpoch {
			fmt.Printf("epoch %-14d requests=%d queries=%d steps=%d batches=%d\n",
				epoch, c.Requests, c.Queries, c.Steps, c.Batches)
		}
	}
	ast := svc.AdmissionStatus()
	fmt.Printf("admission: budget=%d inflight=%d rate=%.0f q/s/worker window=%v\n",
		ast.Budget, ast.InFlight, ast.ServiceRate, ast.FeedbackDelay.Round(time.Microsecond))
	for name, c := range ast.PerLane {
		fmt.Printf("lane %-15s admitted=%d shed=%d expired=%d faulted=%d quarantined=%d watchdog=%d\n",
			name, c.Admitted, c.Shed, c.Expired, c.Faulted, c.Quarantined, c.WatchdogKilled)
	}
	for name, c := range ast.PerTenant {
		fmt.Printf("tenant %-13s admitted=%d shed=%d expired=%d faulted=%d quarantined=%d watchdog=%d\n",
			name, c.Admitted, c.Shed, c.Expired, c.Faulted, c.Quarantined, c.WatchdogKilled)
	}
	fr := svc.FaultStatus()
	if fr.BreakerOpens > 0 || len(fr.Watchdog) > 0 || fr.QuarantinedQueries > 0 {
		fmt.Printf("faults: breaker-opens=%d quarantined-queries=%d watchdog-kills=%d\n",
			fr.BreakerOpens, fr.QuarantinedQueries, len(fr.Watchdog))
		for _, b := range fr.Breakers {
			fmt.Printf("breaker %-12s state=%s consecutive=%d\n", b.Key, b.State, b.Consecutive)
		}
		for _, w := range fr.Watchdog {
			fmt.Printf("watchdog-kill backend=%s lane=%s tenant=%s epoch=%d stage=%s queries=%d\n",
				w.Backend, w.Lane, w.Tenant, w.Epoch, w.Stage, w.Queries)
		}
	}
	if counts := ridgewalker.FaultInjectionCounts(); len(counts) > 0 {
		for p, n := range counts {
			fmt.Printf("chaos %-14s fired=%d\n", p, n)
		}
	}
	return writePaths(pathsOut, paths)
}

// serveRound fires the workload as concurrent requests and reports wall
// throughput; it returns the concatenated paths when keepPaths is set.
// Requests the admission gate sheds (over budget or quota, or an
// infeasible deadline) are counted and reported, not fatal.
func serveRound(svc *ridgewalker.Service, cfg ridgewalker.WalkConfig, qs []ridgewalker.Query,
	requests, total int, deadline time.Duration, keepPaths bool) ([][]ridgewalker.VertexID, error) {
	chunk := (len(qs) + requests - 1) / requests
	results := make([]*ridgewalker.Result, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	start := time.Now()
	served := 0
	for r := 0; r < requests; r++ {
		lo := r * chunk
		hi := min(lo+chunk, len(qs))
		if lo >= hi {
			break
		}
		served++
		wg.Add(1)
		go func(r, lo, hi int) {
			defer wg.Done()
			ctx := context.Background()
			if deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, deadline)
				defer cancel()
			}
			results[r], errs[r] = svc.Submit(ctx, cfg, qs[lo:hi])
		}(r, lo, hi)
	}
	wg.Wait()
	el := time.Since(start)
	shed := 0
	for r, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ridgewalker.ErrOverloaded),
			errors.Is(err, ridgewalker.ErrQuotaExceeded),
			errors.Is(err, context.DeadlineExceeded):
			shed++
		case errors.Is(err, ridgewalker.ErrEngineFault),
			errors.Is(err, ridgewalker.ErrQuarantined):
			// Chaos mode: contained engine faults are the point of the
			// exercise — count them as shed and keep reporting.
			shed++
		default:
			return nil, fmt.Errorf("request %d: %w", r, err)
		}
	}
	var steps int64
	var paths [][]ridgewalker.VertexID
	for _, res := range results[:served] {
		if res == nil {
			continue
		}
		steps += res.Steps
		if keepPaths {
			paths = append(paths, res.Paths...)
		}
	}
	fmt.Printf("served %d requests (%d shed, %d queries, %d steps) in %v — %.1f MStep/s wall (epoch %d)\n",
		served-shed, shed, total, steps, el.Round(time.Millisecond),
		float64(steps)/el.Seconds()/1e6, svc.GraphEpoch())
	return paths, nil
}

func effectiveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func writePaths(pathsOut string, paths [][]ridgewalker.VertexID) error {
	if pathsOut == "" {
		return nil
	}
	f, err := os.Create(pathsOut)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, path := range paths {
		for i, v := range path {
			if i > 0 {
				fmt.Fprint(f, " ")
			}
			fmt.Fprint(f, v)
		}
		fmt.Fprintln(f)
	}
	fmt.Printf("wrote %d walks to %s\n", len(paths), pathsOut)
	return nil
}

func parseAlg(s string) (ridgewalker.Algorithm, error) {
	switch strings.ToLower(s) {
	case "urw":
		return ridgewalker.URW, nil
	case "ppr":
		return ridgewalker.PPR, nil
	case "deepwalk":
		return ridgewalker.DeepWalk, nil
	case "node2vec":
		return ridgewalker.Node2Vec, nil
	case "metapath":
		return ridgewalker.MetaPath, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func loadGraph(spec string, shrink int, seed uint64) (*ridgewalker.Graph, error) {
	if strings.HasPrefix(spec, "rmat:") {
		parts := strings.Split(strings.TrimPrefix(spec, "rmat:"), ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("rmat spec needs scale,edgefactor[,kind]")
		}
		scale, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, err
		}
		ef, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		kind := "balanced"
		if len(parts) > 2 {
			kind = parts[2]
		}
		switch kind {
		case "balanced":
			return ridgewalker.GenerateRMAT(ridgewalker.Balanced(scale, ef, seed))
		case "graph500":
			return ridgewalker.GenerateRMAT(ridgewalker.Graph500(scale, ef, seed))
		default:
			return nil, fmt.Errorf("unknown rmat kind %q", kind)
		}
	}
	if ds, err := ridgewalker.DatasetByName(spec); err == nil {
		ds.Scale -= shrink
		if ds.Scale < 8 {
			ds.Scale = 8
		}
		return ds.Generate(seed)
	}
	return ridgewalker.LoadGraph(spec)
}
