// Command perfbench is the repository benchmark. It drives torusd
// in-process — a real service.Server on a loopback listener, or a 3-node
// internal/cluster/harness network — through the public service.Client, as
// a closed loop of nproc clients (one client on the search workload). The
// workload's inputs are generated from -seed; the program receives only the
// generated requests.
//
// Usage:
//
//	perfbench -workload hits|misses|search|cluster -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics on an untraced run. With
// -trace 1 it replays the same seeded inputs with tracing on and reports
// the per-layer metrics (see README.md). Every collected answer is checked
// against the paper's invariants after the timed loop; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics},
// and the exit code is nonzero when any answer fails its check.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	traceOut string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced)")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision recorded with the result")
	fs.StringVar(&o.traceOut, "trace-out", "", "file receiving the traced run's spans (default .bench_build/traces/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if newWorkload(o.workload, o.seed) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), "|"))
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// conditions are the circumstances a result was measured under.
type conditions struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
}

// run runs the benchmark and returns the exit code. Output is buffered
// and written when the run ends: the report on stdout, diagnostics on
// stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var out, diag bytes.Buffer
	code := bench(ctx, args, &out, &diag)
	if _, err := stderr.Write(diag.Bytes()); err != nil {
		code = 1
	}
	if _, err := stdout.Write(out.Bytes()); err != nil {
		code = 1
	}
	return code
}

func bench(ctx context.Context, args []string, stdout, stderr *bytes.Buffer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// GOMAXPROCS is set, not inherited: one scheduler thread per CPU the
	// process may run on, recorded below with the rest of the conditions.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	w := newWorkload(o.workload, o.seed)
	cond := conditions{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc,
		Clients:    w.clients(nproc),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     o.commit,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cond.Workload, cond.Seed, cond.Seconds, cond.Trace)
	fmt.Fprintf(stdout, "conditions gomaxprocs=%d nproc=%d clients=%d go=%s commit=%s cpu=%q\n",
		cond.GOMAXPROCS, cond.NProc, cond.Clients, cond.GoVersion, cond.Commit, cond.CPU)

	dur := time.Duration(o.seconds * float64(time.Second))
	var rep *report
	if o.trace {
		rep, err = tracedRun(ctx, w, cond, dur, o.traceOut)
	} else {
		rep, err = untracedRun(ctx, w, cond, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: failed op:", f)
	}
	for _, line := range rep.log {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		line := fmt.Sprintf("%-28s %14.6g %s", name, m.Value, m.Unit)
		if note := rep.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(stdout, line)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// report is what one run measured.
type report struct {
	attempted, failed int
	failures          []string // the first few failed ops, for the log
	log               []string // printed before the metrics
	metrics           map[string]metric
	notes             map[string]string // printed beside a metric
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// writeJSONFile writes v to path, creating its directory.
func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(v)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

var errNoOps = errors.New("no op completed in the measured time")
