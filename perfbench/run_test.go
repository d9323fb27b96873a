package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// names reads one metric list's names from BENCHMARK.json.
func names(t *testing.T, list string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[list], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func got(res *result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d:\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: metric %q, BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

// Both runs print exactly the metrics BENCHMARK.json declares, with its
// units, and pass their own output checks. The traced run exercises every
// tracing hook from the load lanes, the handlers and the cluster
// transports at once (run with -race).
func TestRunsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	s := small(t, "fleet")
	for _, traced := range []bool{false, true} {
		cfg := runConfig{root: t.TempDir(), seed: 3, seconds: 1, trace: traced, log: io.Discard}
		var res *result
		var err error
		list := "end_to_end"
		if traced {
			list = "per_layer"
			res, err = runTraced(cfg, s)
		} else {
			res, err = runUntraced(cfg, s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s run: correct=%v attempted=%d failed=%d", list, res.Correct, res.Attempted, res.Failed)
		}
		sameList(t, list, got(res), names(t, list))
	}
}
