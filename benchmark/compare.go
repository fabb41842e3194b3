package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords reads a file of -out records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// values collects one end-to-end metric of one workload over the
// untraced runs in recs.
func values(recs []record, workload, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload && !r.Traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict applies a metric's bound to two sets of runs of it: a is the
// baseline, b the candidate. A metric whose own run-to-run spread
// (quartile distance, either side) is wider than the bound cannot show a
// regression of that size and is unresolved; otherwise it has regressed
// when b's median is worse than a's by more than the bound.
func verdict(s spec, workload string, a, b []float64) (string, float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	worse := bmed - amed
	if s.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(aq3-aq1, bq3-bq1)
	if !s.Abs {
		if amed == 0 {
			return "unresolved", 0
		}
		worse /= math.Abs(amed)
		spread /= math.Abs(amed)
	}
	switch bound := s.bound(workload); {
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints one row per workload and end-to-end metric present
// in both files and reports whether any metric regressed.
func compareFiles(aPath, bPath string, w io.Writer) (bool, error) {
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-22s %-14s %-8s %34s %34s %9s %7s  %s\n",
		"workload", "metric", "unit", "a median [q1, q3] n", "b median [q1, q3] n", "worse by", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, s := range endToEnd {
			av, bv := values(a, wl.name, s.Name), values(b, wl.name, s.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, worse := verdict(s, wl.name, av, bv)
			regressed = regressed || v == "regressed"
			unit, bound := "%", 100.0
			if s.Abs {
				unit, bound = "", 1
			}
			fmt.Fprintf(w, "%-22s %-14s %-8s %34s %34s %+8.2f%s %6.2f%s  %s\n",
				wl.name, s.Name, s.Unit, summary(av), summary(bv), worse*bound, unit, s.bound(wl.name)*bound, unit, v)
		}
	}
	return regressed, nil
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, q1, q3, len(xs))
}
