package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare is the in-house benchstat: two sets of run documents (the
// parent's and the change's), one row per workload × end-to-end metric with
// each side's median and quartiles, the metric's bound, and a verdict by
// the rules of the choosing-metrics guide (§6.5, §8).

const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// quartiles are Python's statistics.quantiles(values, n=4) — the exclusive
// method — so spreads read the same here as in the driver. One value is its
// own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict judges the change's runs b against the parent's runs a for a
// metric whose direction is better ("lower" or "higher") and whose
// regression bound is a share of the parent's median. Runs pair by
// position.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	// Fold the direction away: from here on, lower is better.
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	fold := func(vs []float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = sign * v
		}
		return out
	}
	fa, fb := fold(a), fold(b)
	q1a, _, q3a := quartiles(a)
	q1b, _, q3b := quartiles(b)
	ma, mb := median(fa), median(fb)
	base := median(a)
	if base < 0 {
		base = -base
	}
	iqrA := q3a - q1a
	spread := iqrA
	if q3b-q1b > spread {
		spread = q3b - q1b
	}
	maxOf := func(vs []float64) float64 { return vs[len(vs)-1] }
	sa, sb := append([]float64(nil), fa...), append([]float64(nil), fb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := maxOf(sb) < sa[0]
	allWorse := sb[0] > maxOf(sa)
	worsening := mb - ma // > 0: the change is worse

	switch {
	case allWorse && worsening > bound*base:
		return verdictWorse
	case allBetter && -worsening > iqrA:
		return verdictBetter
	case spread > bound*base:
		// The runs of one side disagree by more than the bound: a
		// difference of that size cannot be told from noise.
		return verdictUnresolved
	case worsening > bound*base:
		return verdictWorse
	}
	pairs := len(fa)
	if len(fb) < pairs {
		pairs = len(fb)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if fb[i] < fa[i] {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && -worsening > iqrA {
		return verdictBetter
	}
	return verdictUnchanged
}

func loadDocuments(paths []string) ([]*document, error) {
	var docs []*document
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p, err)
		}
		docs = append(docs, &d)
	}
	return docs, nil
}

// valuesOf collects one metric over the runs of one workload, in the order
// the documents were given.
func valuesOf(docs []*document, workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, d := range docs {
		if d.Workload != workload || d.Trace != traced {
			continue
		}
		if mv, ok := d.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

func compareRuns(w io.Writer, parentPaths, changePaths []string) error {
	parent, err := loadDocuments(parentPaths)
	if err != nil {
		return err
	}
	change, err := loadDocuments(changePaths)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tparent q1/median/q3\tchange q1/median/q3\tdelta\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := valuesOf(parent, wl.Name, m.Name, false), valuesOf(change, wl.Name, m.Name, false)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			q1a, q2a, q3a := quartiles(a)
			q1b, q2b, q3b := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, len(a), len(b), q1a, q2a, q3a, q1b, q2b, q3b,
				100*ratio(q2b-q2a, q2a), 100*m.Bound, verdict(a, b, m.Better, m.Bound))
		}
		failedA, attemptedA := failures(parent, wl.Name)
		failedB, attemptedB := failures(change, wl.Name)
		if attemptedA+attemptedB > 0 {
			v := verdictUnchanged
			if ratio(failedB, attemptedB) > ratio(failedA, attemptedA) {
				v = verdictWorse // any rise in failures is a regression: the bound is 0
			}
			fmt.Fprintf(tw, "%s\tfailed_ratio\tratio\t\t%.4g\t%.4g\t\t0\t%s\n",
				wl.Name, ratio(failedA, attemptedA), ratio(failedB, attemptedB), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Per-layer metrics of the traced runs: listed side by side, no verdict.
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	header := false
	for _, wl := range workloads {
		for _, m := range perLayer {
			a, b := valuesOf(parent, wl.Name, m.Name, true), valuesOf(change, wl.Name, m.Name, true)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(w, "\nper-layer metrics (traced runs; medians, no verdict)")
				fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tparent\tchange")
				header = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.5g\t%.5g\n", wl.Name, m.Name, m.Unit, len(a), len(b), median(a), median(b))
		}
	}
	return tw.Flush()
}

// failures sums failed and attempted ops over a workload's runs.
func failures(docs []*document, workload string) (failed, attempted float64) {
	for _, d := range docs {
		if d.Workload == workload {
			failed += float64(d.Failed)
			attempted += float64(d.Attempted)
		}
	}
	return failed, attempted
}
