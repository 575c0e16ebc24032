package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain prints, per workload and end-to-end metric, each result
// set's median and quartiles and a verdict against the metric's bound,
// then whether the exact work counts agree run for run.
func compareMain(bench benchmarkFile, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nocbench compare old.jsonl new.jsonl (from the repository root)")
		return 2
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	cur, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}

	all := map[string]bool{}
	for w := range old {
		all[w] = true
	}
	for w := range cur {
		all[w] = true
	}
	ws := sortedKeys(all)
	fmt.Printf("%-15s %-11s %6s %36s %36s  %s\n", "workload", "metric", "bound", "old q1/median/q3 (n)", "new q1/median/q3 (n)", "verdict")
	for _, w := range ws {
		for _, m := range bench.EndToEnd {
			a, b := values(old[w], m.Name), values(cur[w], m.Name)
			fmt.Printf("%-15s %-11s %6.2f %36s %36s  %s\n", w, m.Name, m.Bound, quartiles(a), quartiles(b),
				verdict(a, b, m.Bound, m.Better == "higher"))
		}
		for _, line := range countAgreement(old[w], cur[w]) {
			fmt.Printf("%-15s %s\n", w, line)
		}
	}
	return 0
}

// readRecords reads the untraced run records of a result set, by
// workload. Lines that are not run records are skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Trace {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles3 returns Q1, median and Q3 by the exclusive method, as
// Python's statistics.quantiles(v, n=4) computes them.
func quartiles3(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func quartiles(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	q := quartiles3(v)
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", q[0], q[1], q[2], len(v))
}

// verdict compares two sides' medians against the bound. A side whose
// quartile spread exceeds the bound leaves the comparison unresolved,
// unless every new run beats (or loses to) every old run.
func verdict(old, cur []float64, bound float64, higherBetter bool) string {
	if len(old) == 0 || len(cur) == 0 {
		return "unresolved (missing side)"
	}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	qo, qn := quartiles3(old), quartiles3(cur)
	mo, mn := qo[1], qn[1]
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / q[1]
	}
	if spread(qo) > bound || spread(qn) > bound {
		switch {
		case better(minMax(cur, higherBetter, true), minMax(old, higherBetter, false)):
			return "better (every run)"
		case better(minMax(old, higherBetter, true), minMax(cur, higherBetter, false)):
			return "worse (every run)"
		}
		return "unresolved (spread above bound)"
	}
	delta := fmt.Sprintf("(median %+.1f%%)", 100*(mn-mo)/mo)
	worse := (mn - mo) / mo
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse beyond bound " + delta
	case better(mn, mo) && abs(mn-mo) > qo[2]-qo[0]:
		return "better " + delta
	}
	return "within bound " + delta
}

// minMax returns the worst (worst=true) or best value of v.
func minMax(v []float64, higherBetter, worst bool) float64 {
	out := v[0]
	for _, x := range v[1:] {
		if (x < out) == (higherBetter == worst) {
			out = x
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// countAgreement checks that every run of one seed, on either side,
// reports identical exact work counts (link BT, simulated cycles).
func countAgreement(old, cur []record) []string {
	type key struct {
		seed  int64
		count string
	}
	seen := map[key]int64{}
	bad := map[key]bool{}
	for _, r := range append(append([]record(nil), old...), cur...) {
		for name, c := range r.Counts {
			if name != "link_bt" && name != "sim_cycles" {
				continue
			}
			k := key{r.Seed, name}
			if v, ok := seen[k]; ok && v != c {
				bad[k] = true
			}
			seen[k] = c
		}
	}
	if len(seen) == 0 {
		return nil
	}
	if len(bad) == 0 {
		return []string{fmt.Sprintf("link_bt and sim_cycles agree across the runs of each seed (%d seed×count pairs)", len(seen))}
	}
	var out []string
	for k := range bad {
		out = append(out, fmt.Sprintf("exact count %s differs between runs at seed %d", k.count, k.seed))
	}
	sort.Strings(out)
	return out
}
