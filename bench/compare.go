package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareCmd compares two sets of untraced results, the baseline A and
// the change B:
//
//	bench compare A/*.json -- B/*.json
//
// Each file holds the output of one run. For every end-to-end metric of
// every workload it prints each side's median and quartiles and a
// verdict, and exits 1 when any metric regressed or a workload is missing
// from one side.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare A.json... -- B.json...")
		return 2
	}
	a, err := loadResults(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compare(a, b)
	fmt.Fprintf(stdout, "%-13s %-13s %-32s %-32s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	bad := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-13s %-32s %-32s %8s  %s (bound %.0f%%)\n", r.workload, r.metric, r.a, r.b, r.change, r.verdict, 100*r.bound)
		if r.verdict == verdictRegressed || r.verdict == verdictMissing {
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// row is one line of a comparison.
type row struct {
	workload, metric string
	a, b, change     string
	verdict          string
	bound            float64
}

// loadResults reads the full result line of every run in the files; the
// summary lines and traced runs, whose times include tracing, are skipped.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		found := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil || r.Workload == "" {
				continue
			}
			found++
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], &r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", p, err)
		}
		if found == 0 {
			return nil, fmt.Errorf("%s holds no benchmark result", p)
		}
	}
	return out, nil
}

// compare judges every end-to-end metric of every workload in either set.
func compare(a, b map[string][]*result) []row {
	names := map[string]bool{}
	for w := range a {
		names[w] = true
	}
	for w := range b {
		names[w] = true
	}
	var order []string
	for w := range names {
		order = append(order, w)
	}
	sort.Strings(order)
	var rows []row
	for _, w := range order {
		for _, d := range endToEnd {
			rows = append(rows, judge(w, d, values(a[w], d.Name), values(b[w], d.Name)))
		}
	}
	return rows
}

func values(rs []*result, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// judge applies the metric's bound. B regressed when its median is worse
// than A's by more than the bound. Otherwise the verdict is unresolved
// when either side's spread (interquartile range over median) is wider
// than the bound, unless every run of B reads better than every run of A.
func judge(workload string, d metricDef, a, b []float64) row {
	r := row{workload: workload, metric: d.Name, a: describe(a), b: describe(b), bound: d.Bound}
	if len(a) == 0 || len(b) == 0 {
		r.verdict = verdictMissing
		return r
	}
	qa, qb := quartiles(a), quartiles(b)
	ma, mb := qa[1], qb[1]
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	r.change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
	switch {
	case worse > d.Bound:
		r.verdict = verdictRegressed
	case (spread(qa) > d.Bound || spread(qb) > d.Bound) && !allBetter(d, a, b):
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictWithin
	}
	return r
}

func spread(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], len(xs))
}
