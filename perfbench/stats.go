package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"grub/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// expo is one parsed /metrics scrape.
type expo struct {
	fams  []obs.ParsedFamily
	bytes int
}

// sum adds every sample named name whose labels match all of want
// (name=value pairs).
func (e expo) sum(name string, want ...string) float64 {
	t := 0.0
	for _, f := range e.fams {
		for _, s := range f.Samples {
			if s.Name == name && labelsMatch(s.Labels, want) {
				t += s.Value
			}
		}
	}
	return t
}

// series counts the exposition's sample lines.
func (e expo) series() int {
	n := 0
	for _, f := range e.fams {
		n += len(f.Samples)
	}
	return n
}

func labelsMatch(ls []obs.LabelPair, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		ok := false
		for _, l := range ls {
			if l.Name == want[i] && l.Value == want[i+1] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// expoDelta sums name over both members' scrapes, after minus before.
func expoDelta(before, after [2]expo, name string, want ...string) float64 {
	d := 0.0
	for i := range before {
		d += after[i].sum(name, want...) - before[i].sum(name, want...)
	}
	return d
}
