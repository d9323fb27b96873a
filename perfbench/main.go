// Command perfbench is the repository's benchmark: it starts an in-process
// 2-node GRuB gateway cluster, drives one seeded open-loop workload through
// it, checks the outputs and prints the metrics as one JSON line. See
// README.md for the workloads, the metrics and the traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare <base-dir> <candidate-dir>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest, verified-read or fleet")
	seed := fs.Uint64("seed", 1, "seed of the generated op stream")
	seconds := fs.Int("seconds", 10, "length of one measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "traced run: write a CPU profile of the measured part to this file")
	memprofile := fs.String("memprofile", "", "traced run: write a heap profile at the end to this file")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments (base, candidate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes a base and a candidate result directory")
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1), stdout)
	}
	s, err := specByName(*workload)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	// The benchmark builds and runs inside a checkout of the repository.
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg := runConfig{
		root: root, seed: *seed, seconds: *seconds, trace: *trace == 1,
		cpuprofile: *cpuprofile, memprofile: *memprofile, log: stderr,
	}
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, s)
	} else {
		res, err = runUntraced(cfg, s)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}
