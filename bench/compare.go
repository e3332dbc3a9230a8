package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != 1 {
		return r, fmt.Errorf("%s: schema %d, want 1", path, r.Schema)
	}
	return r, nil
}

// compareFiles prints, per workload and metric, the value in a (the
// baseline), the value in b, the relative difference and the declared
// bound, and reports whether b holds every bound: no end-to-end metric
// worse than a's by more than its bound, and no failed operation. A
// virtual-clock or count metric that differs is marked, since two runs
// of the same code must agree on it exactly; it gates only through
// virt_us, whose bound is 0.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, d := range perLayer {
		defs[d.Name] = d
	}
	inB := map[string]workloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	ok := true
	exceeded, differing := 0, 0
	for _, wa := range a.Workloads {
		wb, have := inB[wa.Name]
		if !have {
			continue
		}
		fmt.Fprintf(out, "\n%s  fail_share %g -> %g\n", wa.Name, wa.FailShare, wb.FailShare)
		if wb.Failed > 0 {
			ok = false
		}
		valB := map[string]metricValue{}
		for _, m := range wb.Metrics {
			valB[m.Name] = m
		}
		for _, ma := range wa.Metrics {
			mb, have := valB[ma.Name]
			if !have {
				continue
			}
			def := defs[ma.Name]
			rel := 0.0
			if ma.Value != 0 {
				rel = (mb.Value - ma.Value) / math.Abs(ma.Value)
			} else if mb.Value != 0 {
				rel = math.Inf(1)
			}
			worse := rel
			if def.Better == "higher" {
				worse = -rel
			}
			note := ""
			switch {
			case ma.Kind == "end_to_end" && worse > def.Bound:
				note = "EXCEEDS BOUND"
				exceeded++
				ok = false
			case def.Clock != host && ma.Value != mb.Value:
				note = "differs"
				differing++
			}
			bound := "-"
			if ma.Kind == "end_to_end" {
				bound = fmt.Sprintf("%.3g%%", 100*def.Bound)
			}
			fmt.Fprintf(out, "  %-30s %14.6g %14.6g %-7s %+8.2f%%  bound %-5s %s\n",
				ma.Name, ma.Value, mb.Value, ma.Unit, 100*rel, bound, note)
		}
	}
	fmt.Fprintf(out, "\n%d end-to-end metrics beyond their bound, %d deterministic metrics differ\n", exceeded, differing)
	return ok, nil
}
