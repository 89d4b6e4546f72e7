// Command perfbench is the repository benchmark. It runs one checkpoint
// workload (stream, incremental or many_small) against a fresh in-process
// stdchk cluster — one manager with its journal in relaxed async mode and
// four benefactors on disk-backed stores, all talking over loopback
// sockets with no device models — checks every restored byte, and prints
// the metrics BENCHMARK.json declares.
//
// Usage (from the checkout root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn, each ending with its own
// JSON line.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs the workload twice on fresh clusters, for half the time each:
// once bare, once with every layer seam instrumented (timed metadata
// endpoint, timed store, counting connections, span recorder). It reports
// the per-layer metrics of the instrumented half and, as the tracing
// overhead, how much slower that half was than the bare one, and the
// count of the GC-race probe (see gcRaceProbe). The last
// line of standard output is always the JSON result; the lines before it
// carry the machine label, the seed and a readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // working root: cluster stores, span dumps
}

// metric is one reported figure.
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
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all of them in turn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from an instrumented run")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for cluster stores and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		o.workload = name
		res, err := run(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// run executes one benchmark run and returns its result; the label and
// the readable table go to out.
func run(o options, out io.Writer) (result, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	// Stream holds a few 128 MB images at once; a soft limit keeps the
	// heap from doubling between collections.
	debug.SetMemoryLimit(1 << 30)
	work, err := filepath.Abs(o.work)
	if err != nil {
		return result{}, err
	}
	runDir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	lbl := newLabel(o)
	lj, _ := json.Marshal(lbl) // strings and numbers only: cannot fail
	fmt.Fprintf(out, "label %s\n", lj)

	var rep *report
	if !o.trace {
		rep, err = measure(o, spec, runDir, o.seconds, false)
		if err != nil {
			return result{}, err
		}
		printTable(out, o, rep.e2e)
		return rep.result(rep.e2e), nil
	}

	half := o.seconds / 2
	bare, err := measure(o, spec, filepath.Join(runDir, "bare"), half, false)
	if err != nil {
		return result{}, err
	}
	rep, err = measure(o, spec, filepath.Join(runDir, "traced"), half, true)
	if err != nil {
		return result{}, err
	}
	layers := rep.layers
	primary := spec.primary
	b, t := bare.e2e[primary].Value, rep.e2e[primary].Value
	layers["trace.overhead_frac"] = metric{1 - t/b, "frac"}
	lost, restoreErr, err := gcRaceProbe(filepath.Join(runDir, "gcprobe"), o.seed)
	if err != nil {
		return result{}, err
	}
	layers["defect.gc_race_lost_chunks"] = metric{float64(lost), "count"}
	if err := rep.lay.dumpSpans(filepath.Join(work, "traces"), o, lbl); err != nil {
		return result{}, err
	}
	printTable(out, o, layers)
	printSpanTable(out, rep.lay.tr)
	fmt.Fprintf(out, "tracing overhead on %s: bare %.4g, traced %.4g (%s)\n", primary, b, t, rep.e2e[primary].Unit)
	fmt.Fprintf(out, "gc-race probe: a GC round inside each Put deleted %d of the %d chunks of an acknowledged checkpoint; its restore returned %v\n", lost, probeChunks, restoreErr)
	res := rep.result(layers)
	res.Attempted += bare.t.attempted
	res.Failed += bare.t.failed
	res.Correct = res.Correct && bare.t.correct()
	return res, nil
}

// label describes where and how a result was measured.
type label struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Store      string  `json:"store"`
	Journal    string  `json:"journal"`
	Network    string  `json:"network"`
	Cluster    string  `json:"cluster"`
}

func newLabel(o options) label {
	return label{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Store:      "disk (store.OpenDisk, temp dir)",
		Journal:    "on, relaxed async (no fsync)",
		Network:    "loopback TCP, unshaped",
		Cluster:    fmt.Sprintf("1 manager, %d benefactors, stripe %d, replication %d", benefactorCount, stripeWidth, replication),
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printTable(out io.Writer, o options, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// since reports the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
