package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// small shrinks a workload so a test can generate and run it quickly.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.feeds = min(s.feeds, 4)
	s.records = min(s.records, 256)
	return s
}

func encode(t *testing.T, g *stream) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			s.records = min(s.records, 4096)
			a := encode(t, generate(s, 42, 2, 2))
			b := encode(t, generate(s, 42, 2, 2))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different op streams")
			}
			if c := encode(t, generate(s, 43, 2, 2)); bytes.Equal(a, c) {
				t.Fatal("different seeds produced the same op stream")
			}
		})
	}
}

// Every write batch of a feed rides one lane, so the owner applies each
// feed's batches in generation order.
func TestFeedStaysOnOneLane(t *testing.T) {
	g := generate(small(t, "fleet"), 7, 2, 1)
	lane := map[int]int{}
	for l, rs := range g.Windows[0].Lanes {
		for _, r := range rs {
			if prev, ok := lane[r.Feed]; ok && prev != l {
				t.Fatalf("feed %d on lanes %d and %d", r.Feed, prev, l)
			}
			lane[r.Feed] = l
		}
	}
}

// The same seed gives the same gas_per_op on a live cluster, and the run's
// own output checks pass.
func TestSameSeedSameGas(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	s := small(t, "fleet")
	gas := func(seed uint64) float64 {
		cfg := runConfig{root: t.TempDir(), seed: seed, seconds: 1, log: io.Discard}
		res, err := runUntraced(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		return res.Metrics["gas_per_op"].Value
	}
	a, b := gas(5), gas(5)
	if a != b || a == 0 {
		t.Fatalf("gas_per_op %v then %v for one seed", a, b)
	}
}
