// Command liveupdate-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	liveupdate-bench -exp fig14            # one experiment, full fidelity
//	liveupdate-bench -exp all -quick       # everything, reduced samples
//	liveupdate-bench -exp all -concurrency 4  # experiments in parallel
//	liveupdate-bench -list                 # show available experiment ids
//
// Exit status: 0 on success, 1 when an experiment fails, 2 on a bad flag or
// when emitting results fails (e.g. a closed or full output pipe) — results
// that cannot be written are results that were never delivered, so write
// errors are checked and fatal rather than silently dropped.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"liveupdate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("liveupdate-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (fig3a..fig19, table2, table3) or 'all'")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	quick := fs.Bool("quick", false, "reduced sample counts (smoke run)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	concurrency := fs.Int("concurrency", 1,
		"experiments to run in parallel (output order stays deterministic)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile after the run to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *concurrency < 1 {
		fmt.Fprintf(stderr, "liveupdate-bench: -concurrency must be >= 1, got %d\n", *concurrency)
		return 1
	}
	// Profiling brackets the experiment runs themselves; stopProfiles is
	// called explicitly (not deferred) right after the experiments finish, so
	// a failed result emission cannot truncate a profile.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "liveupdate-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "liveupdate-bench: starting CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		cpuFile = f
	}
	stopProfiles := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(stderr, "liveupdate-bench: closing CPU profile: %v\n", err)
			}
			cpuFile = nil
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "liveupdate-bench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle: profile retained memory, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "liveupdate-bench: writing heap profile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "liveupdate-bench: closing heap profile: %v\n", err)
			}
		}
	}

	// All result emission goes through one buffered writer, which keeps its
	// first write error: a failed write (closed pipe, full disk) surfaces
	// from flush as a non-zero exit, not ignored sample by sample.
	out := bufio.NewWriter(stdout)
	flush := func() int {
		if err := out.Flush(); err != nil {
			fmt.Fprintf(stderr, "liveupdate-bench: writing results: %v\n", err)
			return 2
		}
		return 0
	}

	if *list {
		stopProfiles() // nothing to profile; close cleanly
		for _, id := range liveupdate.ExperimentIDs() {
			fmt.Fprintln(out, id)
		}
		return flush()
	}

	ids := liveupdate.ExperimentIDs()
	if *exp != "all" {
		ids = []string{*exp}
	}

	// Run experiments (optionally in parallel), then emit in id order so the
	// report layout is independent of scheduling.
	type result struct {
		out     string
		seconds float64
		err     error
	}
	results := make([]result, len(ids))
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			out, err := liveupdate.RunExperiment(id, *seed, *quick)
			results[i] = result{out: out, seconds: time.Since(start).Seconds(), err: err}
		}(i, id)
	}
	wg.Wait()
	stopProfiles()

	failed := 0
	for i, id := range ids {
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", id, r.err)
			failed++
			continue
		}
		fmt.Fprint(out, r.out)
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", id, r.seconds)
	}
	if code := flush(); code != 0 {
		return code
	}
	if failed > 0 {
		return 1
	}
	return 0
}
