package main

import (
	"fmt"
	"io"
)

// verdict judges the second run's metric against the first's. A gap
// counts only when it exceeds both the bound and the wider of the two
// runs' inter-quartile spreads; without such a gap, a spread wider than
// the bound means the runs cannot show the metric is unchanged.
func verdict(a, b Stat, bound float64) string {
	gap := b.Median/a.Median - 1
	spread := max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	switch {
	case gap > bound && gap > spread:
		return "worse"
	case -gap > bound && -gap > spread:
		return "better"
	case spread > bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any is worse. Failures count as a metric with bound
// zero: any rise in the failed fraction is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	var a, b Result
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	byName := map[string]WorkloadResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-13s %-9s %10s %21s %10s %21s %7s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A-1", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			return worse, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			if sa.N == 0 || sb.N == 0 {
				return worse, fmt.Errorf("%s: %s is missing from one file", ra.Workload, m.name)
			}
			v := verdict(sa, sb, m.bound)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-13s %-9s %10.5g %10.5g..%-9.5g %10.5g %10.5g..%-9.5g %+7.3f %6.2f  %s\n",
				ra.Workload, m.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				sb.Median/sa.Median-1, m.bound, v)
		}
		v := "same"
		if rb.FailFrac > ra.FailFrac {
			v, worse = "worse", true
		} else if rb.FailFrac < ra.FailFrac {
			v = "better"
		}
		fmt.Fprintf(w, "%-13s %-9s %10.5g %21s %10.5g %21s %7s %6.2f  %s\n",
			ra.Workload, "fail_frac", ra.FailFrac, "", rb.FailFrac, "", "", 0.0, v)
		if da, db := ra.PerLayer["virt.drift_records"].Value, rb.PerLayer["virt.drift_records"].Value; da != 0 || db != 0 {
			fmt.Fprintf(w, "%-13s VIRTUAL DRIFT: %g records in A, %g in B\n", ra.Workload, da, db)
		}
	}
	return worse, nil
}
