// Command perfbench is avgloc's end-to-end and per-layer benchmark.
//
// It runs one named workload for a fixed measuring time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (what a user of avgloc
// waits for); with -trace 1 the run is instrumented and the metrics are the
// per-layer split, each named after the module it times. Every workload
// checks its outputs (pinned table hashes, campaign verdicts, served report
// bytes) and exits non-zero when a check fails. Build and run it through
// run.sh from the repository root; METRICS.md documents every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line shared by every workload.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	root     string // repository checkout (campaigns/, BENCH_results.json)
	bin      string // directory holding the avgserve and avgworker binaries
	out      string // directory for traces and child-process logs
	procs    int    // nproc: GOMAXPROCS, in-flight and connection budget
}

// run is one workload's outcome before it is rendered.
type run struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newRun() *run { return &run{values: map[string]float64{}} }

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

var workloads = map[string]func(*config, *run) error{
	"paper-suite":    runSuite,
	"paper-campaign": runCampaign,
	"serve-fleet":    runServe,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var c config
	var seconds, trace int
	probe := flag.String("probe", "", "internal: initialise the named workload, then exit (times set-up)")
	flag.StringVar(&c.workload, "workload", "", "workload: paper-suite, paper-campaign or serve-fleet")
	flag.Uint64Var(&c.seed, "seed", 42, "workload seed; every generated input derives from it")
	flag.IntVar(&seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "repository checkout")
	flag.StringVar(&c.bin, "bin", ".bench_build/bin", "directory with avgserve and avgworker binaries")
	flag.StringVar(&c.out, "out", ".bench_build/out", "directory for traces and logs")
	flag.Parse()
	c.procs = runtime.NumCPU()
	runtime.GOMAXPROCS(c.procs)
	c.measure = time.Duration(seconds) * time.Second
	c.trace = trace == 1

	if *probe != "" {
		return runProbe(&c, *probe)
	}
	body, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("need -seconds >= 1 and -trace 0|1")
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	r := newRun()
	if err := body(&c, r); err != nil {
		return err
	}
	res, err := render(&c, r)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
	return nil
}

// render checks the run's values against the metric catalogue: an untraced
// run must produce every end-to-end metric; a traced run reports every
// per-layer metric, zero for layers the workload does not exercise.
func render(c *config, r *run) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if c.trace {
		for _, m := range perLayer() {
			res.Metrics[m.name] = metric{r.values[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.values[m.name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", c.workload, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	var extra []string
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalogue: %v", extra)
	}
	return res, nil
}

// runProbe is the child side of set-up timing: it performs the workload's
// set-up in a fresh process and exits, so the parent times process start to
// ready.
func runProbe(c *config, workload string) error {
	switch workload {
	case "paper-suite":
		_, err := suiteSetup(c)
		return err
	case "paper-campaign":
		_, err := campaignSetup(c)
		return err
	}
	return fmt.Errorf("no probe for workload %q", workload)
}

// setupProbes times fresh-process set-ups of the workload. A set-up takes
// a few milliseconds, so one probe is at the mercy of whatever else the
// host does at that moment: the workload spreads its probes over the whole
// run, a few between repetitions, and reports their median.
type setupProbes struct {
	c  *config
	xs []float64 // seconds
}

// take times k more set-ups.
func (p *setupProbes) take(k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		start := time.Now()
		if err := runChild(self, "-probe", p.c.workload, "-seed", fmt.Sprint(p.c.seed),
			"-root", p.c.root, "-bin", p.c.bin, "-out", p.c.out); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		p.xs = append(p.xs, time.Since(start).Seconds())
	}
	return nil
}

// peakRSSMB is the process's own peak resident set since the last
// resetPeakRSS (VmHWM; getrusage's ru_maxrss cannot be reset).
func peakRSSMB() float64 { return vmHWM("self") }

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process,
// so each repetition of a workload reports its own peak.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// selfCPUSeconds is the process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// writeTrace stores a buffered trace artifact under the output directory.
func writeTrace(c *config, data []byte) error {
	dir := filepath.Join(c.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d.trace.ndjson", c.workload, c.seed)), data, 0o644)
}
