package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Parent is the index of the span that caused it, -1 for a root;
// Trace groups the spans of one session (attest-lx240t) or one sweep
// (fleet workloads).
type span struct {
	Name    string `json:"name"`
	Trace   int    `json:"trace"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span over [start, end] and returns its index.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin))})
	return len(t.spans) - 1
}

// addPhases records the attestation phases of a report as children of
// parent, laid end to end so that the last one ends at end.
func (t *tracer) addPhases(trace, parent int, end time.Time, phases [4]time.Duration) {
	names := [4]string{"attestation.config", "attestation.readback", "attestation.checksum", "attestation.verdict"}
	var total time.Duration
	for _, d := range phases {
		total += d
	}
	at := end.Add(-total)
	for i, d := range phases {
		t.add(names[i], trace, parent, at, at.Add(d))
		at = at.Add(d)
	}
}

// selfTime sums each span name's self time: the span's duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTime() map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s.StartNS, s.EndNS, children[i]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes the run record, the per-layer metrics and every
// recorded span to <OutDir>/trace-<workload>.json.
func writeSpans(cfg config, rec record, out *outcome) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Run     record  `json:"run"`
		Metrics metrics `json:"metrics"`
		Spans   []span  `json:"spans"`
	}{rec, out.Metrics, out.Spans.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
