// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real system — spawned pmihp-node daemons over
// loopback TCP, checked against the in-process figure simulator, or the
// stream miner publishing into a spawned pmihp-serve under query load —
// checks every operation against an independent reference, and prints one
// JSON result line:
//
//	perfbench -bin <dir> --workload cluster_sparse --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown instead, computed from spans the
// benchmark records around its calls into each layer. run.sh builds the
// daemons and this command from the checkout and then runs it; README.md
// defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
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

// env is what a workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   *tracer // records spans only when --trace 1
	procs   *procSet
	binDir  string // holds the pmihp-node and pmihp-serve binaries
	workDir string // scratch files for this run, inside the checkout
}

// outcome is what a workload run measured. e2e holds the end-to-end
// metrics (reported with --trace 0), layers the per-layer metrics
// (reported with --trace 1); failures counts operations that errored or
// returned a wrong answer.
type outcome struct {
	attempted, failures int
	e2e, layers         map[string]metric
	notes               []string // why an operation was counted as failed
	// ops is every measured operation's latency in seconds, printed so a
	// report shows the distribution behind its quantiles.
	ops []float64
	// phases is the run's wall time by phase (references, set-up,
	// measured operations, checks), printed to show where a run's time
	// goes beyond the measured part.
	phases  map[string]float64
	phaseAt time.Time
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, phases: map[string]float64{}, phaseAt: time.Now()}
}

// phase closes the run phase that began at the previous call (or at the
// start of the run) and names it.
func (o *outcome) phase(name string) {
	now := time.Now()
	o.phases[name] += now.Sub(o.phaseAt).Seconds()
	o.phaseAt = now
}

func (o *outcome) fail(format string, args ...any) {
	o.failures++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"cluster_sparse": runCluster,
	"stream_serve":   runStream,
}

func main() {
	code := run()
	os.Exit(code)
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cluster_sparse or stream_serve")
	seed := fs.Int64("seed", 0, "workload seed (0 reproduces the corpus presets exactly)")
	seconds := fs.Int("seconds", 36, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 reports the traced per-layer breakdown instead of the end-to-end metrics")
	binDir := fs.String("bin", "", "directory holding the pmihp-node and pmihp-serve binaries")
	loadBase := fs.String("load", "", "internal: run as the stream workload's query generator against this base URL")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *loadBase != "" {
		return loadMain(*loadBase)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkDeclared("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, b := range []string{"pmihp-node", "pmihp-serve"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s binary: %v\n", b, err)
			return 1
		}
	}
	workDir, err := os.MkdirTemp(*binDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	procs := &procSet{}
	defer procs.stopAll()
	// An interrupt must not leave daemons behind to skew the next run.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		procs.stopAll()
		os.RemoveAll(workDir)
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		os.Exit(1)
	}()

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   newTracer(*traceFlag == 1),
		procs:   procs,
		binDir:  *binDir,
		workDir: workDir,
	}
	prov := provenance(*workload, *seed, *traceFlag == 1)
	printJSON("provenance", prov)

	out, err := fn(e)
	procs.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	printJSON("ops_s", out.ops)
	printJSON("phases_s", out.phases)
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", n)
	}

	decls, measured := endToEnd, out.e2e
	if e.trace.on {
		decls, measured = perLayer, out.layers
	}
	// A run with failed operations still prints its result, with
	// correct false, even when a failure left a metric unmeasured.
	metrics, err := finish(*workload, measured, decls, out.failures > 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := result{
		Correct:   out.failures == 0,
		Attempted: out.attempted,
		Failed:    out.failures,
		Metrics:   metrics,
	}
	if e.trace.on {
		report := e.trace.report()
		printJSON("self_seconds", report)
		path := filepath.Join(*binDir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := e.trace.write(path, prov); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(os.Stdout, "perfbench: spans written to", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printJSON writes one labelled JSON line of the run's report to stdout.
func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", label, err)
		return
	}
	fmt.Printf("perfbench %s: %s\n", label, b)
}
