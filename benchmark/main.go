// Command benchmark is the repository's performance instrument: five named
// workloads over the LiveUpdate node, fleet and wire path, eight end-to-end
// metrics measured with tracing off, and a per-layer ledger measured from
// outside (boundary shims, a replay twin, kernel probes) with tracing on.
// See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in-process and end with the driver's JSON line (default: every workload, each in a fresh child process)")
		seed      = flag.Uint64("seed", 7, "workload seed: makes the inputs, never reaches the program under test")
		seconds   = flag.Float64("seconds", runSeconds, "how long a run measures, past each workload's fixed minimum count")
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger, tracing on")
		out       = flag.String("out", "", "directory for results.json and Chrome trace-event files")
		runs      = flag.Int("runs", 1, "repeat every workload this many times and print each metric's median and quartiles")
		compare   = flag.Bool("compare", false, "compare two results.json files (arguments: a.json b.json) against the metric bounds")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	flag.Parse()
	o := options{Seed: *seed, Seconds: *seconds, Trace: *traceFlag != 0, Scale: 1, Setups: setupRepeats, OutDir: *out}
	if err := run(*workload, o, *runs, *compare, *printSpec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(workload string, o options, runs int, compare, printSpec bool) error {
	switch {
	case printSpec:
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files, got %d arguments", flag.NArg())
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case o.Seconds < 0 || runs < 1:
		return fmt.Errorf("-seconds must be non-negative, -runs at least 1")
	}
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return err
		}
	}
	if workload != "" {
		r, err := runWorkload(workload, o)
		if err != nil {
			return err
		}
		r.print()
		fmt.Println(r.contractLine())
		if !r.Correct {
			return fmt.Errorf("%s: %w: %s", workload, errIncorrect, failedChecks(r))
		}
		return nil
	}
	return runAll(o, runs)
}

// runWorkload runs one workload in this process. A traced run makes two
// passes, untraced and traced, and gives each half of -seconds, so that it
// takes about as long as an untraced run.
func runWorkload(name string, o options) (*result, error) {
	if o.Trace {
		o.Seconds /= 2
	}
	switch name {
	case "node_fresh", "node_infer":
		return runNodeWorkload(name, o)
	case "fleet_drive":
		return runFleetDrive(o)
	case "wire_batch":
		return runWireBatch(o)
	case "freshness_1h":
		return runFreshness(o)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Machine map[string]string `json:"machine"`
	Seconds float64           `json:"seconds"`
	Results []*result         `json:"results"`
}

// runAll runs every workload, each in a fresh child process so rss_peak_mb,
// cpu_ms_per_kreq and GC state never leak from one workload into the next:
// first with tracing off, then (with -trace 1) traced.
func runAll(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Machine: map[string]string{"go": runtime.Version(), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"numcpu": fmt.Sprint(runtime.NumCPU()), "os": runtime.GOOS, "arch": runtime.GOARCH},
		Seconds: o.Seconds,
	}
	bad := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && !o.Trace {
					continue
				}
				co := o
				co.Trace = traced
				r, err := runChild(self, w.Name, co)
				if err != nil {
					return err
				}
				if !r.Correct {
					bad++
				}
				file.Results = append(file.Results, r)
			}
		}
	}
	printSummary(file.Results, runs)
	if o.OutDir != "" {
		path := filepath.Join(o.OutDir, "results.json")
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if bad > 0 {
		return fmt.Errorf("%d runs: %w", bad, errIncorrect)
	}
	return nil
}

// runChild re-executes this binary for one workload, echoes its report and
// reads the result back from the contract line that ends its output.
func runChild(self, workload string, o options) (*result, error) {
	trace := "0"
	if o.Trace {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
		"-trace", trace}
	if o.OutDir != "" {
		args = append(args, "-out", o.OutDir)
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	r, err := parseContractLine(lines[len(lines)-1])
	if err != nil {
		return nil, fmt.Errorf("%s: child printed no result (%v): %w", workload, runErr, err)
	}
	r.Workload, r.Seed, r.Trace = workload, o.Seed, o.Trace
	return r, nil
}

// parseContractLine reads a run's last output line back into a result.
func parseContractLine(line string) (*result, error) {
	var doc struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		return nil, err
	}
	if doc.Correct == nil || doc.Metrics == nil {
		return nil, errors.New("not a result line")
	}
	r := &result{Correct: *doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: map[string]float64{}}
	for name, m := range doc.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, nil
}
