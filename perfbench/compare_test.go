package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quartiles must match Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1, 2}, 1, 2, 3.5},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, tc := range []struct {
		name string
		cand []float64
		want string
	}{
		{"faster", shift(-2), "better"},
		{"slower", shift(+2), "worse"},
		{"unchanged", shift(0.05), "same"},
		{"noisy", noisy, "unresolved"},
	} {
		if got := verdict(base, tc.cand, true, 0.05); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// Every candidate run beats every base run, but by less than the base's
	// interquartile distance: no gain is claimed, and the wide base alone
	// does not make the metric unresolved.
	wide := []float64{10, 10.5, 11, 11.5, 12, 12.5, 13, 13.5, 14, 14.5}
	tight := []float64{9.9, 9.91, 9.92, 9.93, 9.94, 9.95, 9.96, 9.97, 9.98, 9.99}
	if got := verdict(wide, tight, true, 0.05); got != "same" {
		t.Errorf("tight candidate, wide base, small gap: verdict %s, want same", got)
	}
	// Higher-is-better flips the direction.
	if got := verdict(base, shift(-2), false, 0.05); got != "worse" {
		t.Errorf("higher-better, lower candidate: verdict %s, want worse", got)
	}
}

// A workload with a run that failed its output checks gets no verdicts,
// and the comparison fails.
func TestCompareRefusesIncorrectRuns(t *testing.T) {
	root := t.TempDir()
	bench := `{"workloads":[{"name":"ingest"},{"name":"fleet"}],
		"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(dir, name string, correct bool, v float64) {
		line := fmt.Sprintf(`{"correct":%v,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":%v,"unit":"ms"}}}`, correct, v)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("log line\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, cand := filepath.Join(root, "base"), filepath.Join(root, "cand")
	for _, d := range []string{base, cand} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		write(base, fmt.Sprintf("ingest.%d.out", i), true, 10)
		write(base, fmt.Sprintf("fleet.%d.out", i), true, 10)
		write(cand, fmt.Sprintf("ingest.%d.out", i), i != 3, 1)
		write(cand, fmt.Sprintf("fleet.%d.out", i), true, 10)
	}
	var out strings.Builder
	err := runCompare(root, base, cand, &out)
	if err == nil {
		t.Fatal("compare accepted a candidate run that failed its output checks")
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] == "ingest" && strings.HasSuffix(line, "better") {
			t.Errorf("incorrect candidate got a verdict: %q", line)
		}
		if f[0] == "fleet" && f[1] == "latency_ms" && !strings.Contains(line, "same") {
			t.Errorf("correct workload lost its verdict: %q", line)
		}
	}
	if !strings.Contains(out.String(), "invalid: output checks failed in 0 base and 1 candidate runs") {
		t.Errorf("no invalid mark in:\n%s", out.String())
	}
}
