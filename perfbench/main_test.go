package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the harness must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortConfig is a run of the workload with one timed session or sweep,
// one set-up and short kernel rows.
func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{
		Workload:   workload,
		Seed:       7,
		Measure:    time.Nanosecond,
		Trace:      traced,
		SetupReps:  1,
		KernelTime: 10 * time.Millisecond,
		OutDir:     t.TempDir(),
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsReportEveryMetric runs every workload of the harness,
// including fleet-rotate which BENCHMARK.json does not list, untraced
// and traced. It checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and that the end-to-end
// metrics are never 0.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json lists workload %s, which the harness does not run", w.Name)
		}
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				checkMetrics(t, spec, name, traced)
			}
		})
	}
}

// checkMetrics runs one workload in short mode and checks its metrics
// against BENCHMARK.json.
func checkMetrics(t *testing.T, spec benchSpec, name string, traced bool) {
	cfg := shortConfig(t, name, traced)
	out, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("trace %v: %v", traced, err)
	}
	if out.Attempted < 1 {
		t.Errorf("trace %v: attempted %d sessions", traced, out.Attempted)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("trace %v: %d metrics, BENCHMARK.json lists %d", traced, len(out.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := out.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("trace %v: metric %s missing", traced, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("trace %v: metric %s in %q, BENCHMARK.json says %q", traced, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("trace %v: metric %s is %v", traced, w.Name, m.Value)
		case !traced && m.Value <= 0:
			t.Errorf("end-to-end metric %s is %v", w.Name, m.Value)
		}
	}
	if traced && (out.Spans == nil || len(out.Spans.spans) == 0) {
		t.Errorf("traced run recorded no spans")
	}
}

// TestGateTripsOnFlippedExpectation expects every workload's tampered
// session to be accepted; the correctness gate must fail the run.
func TestGateTripsOnFlippedExpectation(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(t, name, false)
			cfg.FlipExpect = true
			if _, err := workloads[name](cfg); !errors.Is(err, errWrongVerdict) {
				t.Errorf("err %v, want %v", err, errWrongVerdict)
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, -1, at(0), at(10))
	tr.add("a", 0, root, at(1), at(4))
	tr.add("b", 0, root, at(3), at(6)) // overlaps a: the union covers 1..6
	tr.add("c", 0, root, at(8), at(12))
	self := tr.selfTime()
	if got, want := self["root"], 3*time.Millisecond; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := self["c"], 4*time.Millisecond; got != want {
		t.Errorf("leaf self time %v, want %v", got, want)
	}
}
