package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads a result directory: one file per run, named
// "<workload>.<anything>.out", holding the run's standard output. The last
// line of each file is the run's result. Files are returned in name order
// per workload, so runs pair up by position across two directories.
func loadResults(dir string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".out") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := map[string][]result{}
	for _, name := range names {
		wl, _, ok := strings.Cut(name, ".")
		if !ok {
			continue
		}
		r, err := lastResult(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[wl] = append(out[wl], r)
	}
	return out, nil
}

func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict compares candidate runs c against base runs b for one metric:
//
//   - better: every candidate run beats every base run, or the candidate
//     wins at least 9 in 10 position-paired runs; and the medians differ
//     by more than the base's interquartile distance;
//   - unresolved: otherwise, when either side's interquartile distance is
//     wider than the bound (as a share of its median), unless every
//     candidate run beats every base run;
//   - worse: the candidate median is worse than the base median by more
//     than the bound;
//   - same: within the bound.
func verdict(b, c []float64, lowerBetter bool, bound float64) string {
	beats := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	b1, mb, b3 := quartiles(b)
	c1, mc, c3 := quartiles(c)
	all := len(b) > 0 && len(c) > 0
	for _, x := range c {
		for _, y := range b {
			all = all && beats(x, y)
		}
	}
	wins, pairs := 0, min(len(b), len(c))
	for i := 0; i < pairs; i++ {
		if beats(c[i], b[i]) {
			wins++
		}
	}
	wins9 := pairs > 0 && float64(wins) >= 0.9*float64(pairs)
	if (all || wins9) && math.Abs(mc-mb) > b3-b1 {
		return "better"
	}
	if !all && (ratio(b3-b1, math.Abs(mb)) > bound || ratio(c3-c1, math.Abs(mc)) > bound) {
		return "unresolved"
	}
	worse := ratio(mc-mb, math.Abs(mb))
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "same"
}

// runCompare prints, per workload and end-to-end metric, both sides'
// median and quartiles and the verdict against BENCHMARK.json's bound. A
// workload with a run that failed its output checks gets no verdicts, and
// then runCompare returns an error.
func runCompare(root, baseDir, candDir string, w io.Writer) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	cand, err := loadResults(candDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	invalid := 0
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase q1\tbase median\tbase q3\tcand q1\tcand median\tcand q3\tbound\tverdict\t")
	for _, wl := range bf.Workloads {
		rb, rc := base[wl.Name], cand[wl.Name]
		if len(rb) == 0 || len(rc) == 0 {
			fmt.Fprintf(tw, "%s\t(no runs: base %d, candidate %d)\t\t\t\t\t\t\t\t\t\t\n", wl.Name, len(rb), len(rc))
			continue
		}
		if nb, nc := incorrect(rb), incorrect(rc); nb+nc > 0 {
			fmt.Fprintf(tw, "%s\t(invalid: output checks failed in %d base and %d candidate runs)\t\t\t\t\t\t\t\t\t\t\n", wl.Name, nb, nc)
			invalid++
			continue
		}
		for _, e := range bf.EndToEnd {
			vb, vc := values(rb, e.Name), values(rc, e.Name)
			b1, mb, b3 := quartiles(vb)
			c1, mc, c3 := quartiles(vc)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.2f\t%s\t\n",
				wl.Name, e.Name, e.Unit, b1, mb, b3, c1, mc, c3, e.Bound, verdict(vb, vc, e.Better == "lower", e.Bound))
		}
		fmt.Fprintf(tw, "%s\truns\t\t\t%d\t\t\t%d\t\t\t\t\n", wl.Name, len(rb), len(rc))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if invalid > 0 {
		return fmt.Errorf("%d workloads have runs that failed their output checks", invalid)
	}
	return nil
}

func incorrect(rs []result) int {
	n := 0
	for _, r := range rs {
		if !r.Correct {
			n++
		}
	}
	return n
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
