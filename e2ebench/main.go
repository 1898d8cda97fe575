// Command e2ebench is VStore's end-to-end benchmark. It runs one named
// workload against the real store in-process, behind real loopback HTTP
// listeners (api.Server nodes, and a cluster.Router where the workload
// routes), drives it from one process with at most two client
// connections, checks every answer against an in-process oracle, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer breakdown, measured by timing calls into each package's
// public functions from outside (HTTP middleware around the node and
// router handlers, an engine assembled from public parts, a timing
// key-value wrapper under a reopened store). The program itself is not
// instrumented.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload scan|dashboard-routed|ingest-mix \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// options are the command-line knobs of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// corruptReference flips one oracle digest before the window, so a
	// run must report wrong answers and exit non-zero: the proof that the
	// answer check can fail.
	corruptReference bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"scan":             runScan,
	"dashboard-routed": runDashboard,
	"ingest-mix":       runIngestMix,
}

// metric is one entry of the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: scan, dashboard-routed or ingest-mix")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the generated requests")
	fs.IntVar(&opt.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	fs.BoolVar(&opt.corruptReference, "corrupt-reference", false, "flip one reference digest (the answer check must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	opt.trace = trace == 1
	debug.SetGCPercent(gcPercent)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(opt, dir)
	defer b.cancel()
	err = runWorkload(b)
	if cerr := b.closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res, report := b.finish()
	fmt.Fprintln(stdout, report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %d of %d operations failed or answered wrongly\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// gcPercent is the collector's GOGC for the run. Here three nodes, the
// router and the clients share one heap whose live size is only a few MB,
// so at the default of 100 the collector runs at its 4 MB floor, about 190
// times a second on dashboard-routed, and every cycle's stop-the-world
// pauses must halt all of them. On a shared 2-vCPU host those pauses
// stretch whenever a vCPU is descheduled: over four minutes the routed p50
// read 2.07-3.64 ms at GOGC 100 and 1.26-1.59 ms at 400, in alternating
// runs. At 400 the figures follow the store rather than the pause rate.
const gcPercent = 400

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// errWrongAnswer marks an operation whose answer differs from the oracle.
var errWrongAnswer = errors.New("answer differs from the in-process reference")

// runCtx bounds every run: a run must end within 180 seconds.
func runCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 170*time.Second)
}
