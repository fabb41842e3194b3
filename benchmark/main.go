// Command benchmark is the repository's performance ruler: four fixed
// workloads driven through the public API, the end-to-end metrics a user
// of the library sees, and, in a separate traced run, each layer's public
// functions timed from outside on the same inputs. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md explains
// them.
//
//	go run ./benchmark -workload batch-urw -seed 1          # one workload
//	go run ./benchmark -workload all -seed 1                # all four
//	go run ./benchmark -workload serve-urw -trace 1 -spans spans.json
//	go run ./benchmark -compare a.jsonl b.jsonl             # apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Uint64("seed", 1, "seed of the generated graph, queries, walks and mutations")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the measured phases last")
	scale := fs.Int("scale", 20, "RMAT scale of the batch and serve-urw graph (the mutate workload uses scale-2)")
	trace := fs.Int("trace", 0, "1 makes the traced run: spans at every call site plus the per-layer probes")
	spans := fs.String("spans", "", "with -trace 1, write the spans to this file when the run ends")
	out := fs.String("out", "", "append each run's full record to this file as one JSON line")
	cmp := fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two record files")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// A fixed processor count keeps the planner's and the service's
	// GOMAXPROCS-derived defaults the same on every host up to 4 cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()}
	o := options{seed: *seed, seconds: *seconds, scale: *scale}
	code := 0
	for _, w := range todo {
		// -workload all with -trace 1 makes both runs, so the cost of
		// tracing itself is on the page.
		var plain *record
		modes := []bool{*trace == 1}
		if *name == "all" && *trace == 1 {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			o.traced = traced
			rec, err := runWorkload(w, o, env)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printRecord(stdout, rec)
			if traced && plain != nil {
				printTraceOverhead(stdout, plain, rec)
			}
			if !traced {
				plain = rec
			}
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			if traced && *spans != "" {
				path := *spans
				if *name == "all" { // one file per workload, beside the named one
					path = filepath.Join(filepath.Dir(path), w.name+"."+filepath.Base(path))
				}
				if err := writeTrace(path, w.name, o.seed, rec.spans); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			if !rec.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: walks differ from walk.Run\n", w.name)
				code = 1
			}
			if *name != "all" {
				printResultLine(stdout, rec)
			}
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// commit asks git for the checked-out revision; a checkout without git
// metadata is labelled unknown.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "== %s seed=%d scale=%d seconds=%g traced=%v | nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Scale, rec.Seconds, rec.Traced,
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.Go, rec.Env.Commit)
	if b, err := json.Marshal(rec.Plan); err == nil && rec.Plan != nil {
		fmt.Fprintf(w, "plan: %s\n", b)
	}
	if b, err := json.Marshal(rec.Admission); err == nil && rec.Admission != nil {
		fmt.Fprintf(w, "admission: %s\n", b)
	}
	for _, s := range endToEnd {
		if m, ok := rec.EndToEnd[s.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", s.Name, m.Value, m.Unit, m.N)
		}
	}
	if rec.Traced {
		for _, s := range perLayer {
			if m, ok := rec.PerLayer[s.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", s.Name, m.Value, m.Unit, m.N)
			}
		}
		self := selfTimes(rec.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  self_ms.%-28s %14.4f ms\n", name, ms(self[name].Seconds()))
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d paths_checked=%d\n", rec.Correct, rec.Attempted, rec.Failed, rec.Checked)
}

// printTraceOverhead states, per end-to-end metric, how far the traced
// run is from the untraced run of the same inputs.
func printTraceOverhead(w io.Writer, plain, traced *record) {
	worst := 0.0
	for _, s := range endToEnd {
		a, ok := plain.EndToEnd[s.Name]
		b := traced.EndToEnd[s.Name]
		if !ok || a.Value == 0 {
			continue
		}
		share := (b.Value - a.Value) / a.Value
		if s.Better == "higher" {
			share = -share
		}
		fmt.Fprintf(w, "  trace_overhead_share.%-20s %+.4f\n", s.Name, share)
		worst = max(worst, share)
	}
	fmt.Fprintf(w, "  trace_overhead_share %.4f (worst metric)\n", worst)
}

// printResultLine writes the one-line result: the gated end-to-end
// metrics of an untraced run, every per-layer metric of a traced one.
func printResultLine(w io.Writer, rec *record) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range endToEnd {
		if s.Gated == !rec.Traced { // the ungated ones ride with the layers
			metrics[s.Name] = value{rec.EndToEnd[s.Name].Value, s.Unit}
		}
	}
	if rec.Traced {
		for _, s := range perLayer {
			metrics[s.Name] = value{rec.PerLayer[s.Name].Value, s.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Fprintf(w, "%s\n", b)
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
