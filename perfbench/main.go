// Command perfbench is the repository benchmark. It runs one workload of
// the SACHa verifier stack for a fixed wall time, checks every verdict,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload attest-lx240t --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics, measured with
// every probe of the benchmark off. With --trace 1 the workload runs an
// untraced half and a traced half; the object holds the per-layer
// metrics of the traced half, the kernel rows and the tracing overhead,
// and the recorded spans are written to .bench_build/perfbench/. The
// program's own tracing hooks (verifier.Options.Span, SweepConfig.Spans
// and SweepConfig.Flight) stay nil in both modes: every layer is timed
// from outside, around calls into its public functions.
//
// Any wrong verdict ends the command with exit code 1 and no result.
// README.md lists the workloads and which end-to-end metric each layer
// metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// result is the final line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation of a workload.
type config struct {
	Workload string
	Seed     int64
	// Measure is the timed wall time; a traced run splits it between
	// its untraced and traced halves.
	Measure time.Duration
	Trace   bool
	// SetupReps is how many complete set-ups are timed for setup_s; the
	// last one runs the workload.
	SetupReps int
	// WarmSweeps is how many untimed sweeps a fleet workload runs after
	// set-up, before timing starts.
	WarmSweeps int
	// KernelTime is the testing.Benchmark time per kernel row.
	KernelTime time.Duration
	// OutDir holds the fleet state directories while a run lasts and
	// the span file of a traced run.
	OutDir string
	// FlipExpect expects the tampered session to be accepted, which no
	// correct verifier does: it proves the correctness gate trips.
	FlipExpect bool
}

// outcome is what a workload run returns: the metrics of the selected
// mode, the number of sessions it attempted, and, for traced runs, the
// spans recorded.
type outcome struct {
	Metrics   metrics
	Attempted int
	Spans     *tracer
}

// errWrongVerdict marks a failed correctness gate.
var errWrongVerdict = errors.New("wrong verdict")

var workloads = map[string]func(config) (*outcome, error){
	"attest-lx240t": runAttest,
	"fleet-warm":    func(c config) (*outcome, error) { return runFleet(c, false) },
	"fleet-rotate":  func(c config) (*outcome, error) { return runFleet(c, true) },
}

func main() {
	testing.Init()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "attest-lx240t, fleet-warm or fleet-rotate")
	seed := fs.Int64("seed", 1, "workload seed: nonces, provisioning and the tampered member derive from it")
	seconds := fs.Float64("seconds", 30, "timed wall time")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flip := fs.Bool("flip-expect", false, "expect tampered sessions to be accepted (demonstrates that the correctness gate fails the command)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (attest-lx240t|fleet-warm|fleet-rotate), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		Workload:   *workload,
		Seed:       *seed,
		Measure:    time.Duration(*seconds * float64(time.Second)),
		Trace:      *traceOn == 1,
		SetupReps:  3,
		WarmSweeps: 2,
		KernelTime: 150 * time.Millisecond,
		OutDir:     ".bench_build/perfbench",
		FlipExpect: *flip,
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	rec := newRecord(cfg)
	if out.Spans != nil {
		if err := writeSpans(cfg, rec, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, rec, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// record is the provenance every output row carries.
type record struct {
	Command    string `json:"command"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
	Machine    string `json:"machine"`
}

func newRecord(cfg config) record {
	var u syscall.Utsname
	machine := runtime.GOOS + "/" + runtime.GOARCH
	if syscall.Uname(&u) == nil {
		machine = fmt.Sprintf("%s %s %s", utsString(u.Sysname[:]), utsString(u.Release[:]), utsString(u.Machine[:]))
	}
	return record{
		Command:    strings.Join(os.Args, " "),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Trace:      cfg.Trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Go:         runtime.Version(),
		Machine:    machine,
	}
}

// utsString decodes a NUL-terminated utsname field, whose element type
// differs between architectures.
func utsString[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// printResult writes one JSON row per metric, each carrying the run
// record, then the result object as the last line.
func printResult(w io.Writer, rec record, out *outcome) error {
	enc := json.NewEncoder(w)
	for _, name := range sortedNames(out.Metrics) {
		m := out.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		row := struct {
			Metric string  `json:"metric"`
			Value  float64 `json:"value"`
			Unit   string  `json:"unit"`
			Run    record  `json:"run"`
		}{name, m.Value, m.Unit, rec}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return enc.Encode(result{Correct: true, Attempted: out.Attempted, Failed: 0, Metrics: out.Metrics})
}
