package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sacha/internal/channel"
	"sacha/internal/fleet"
	"sacha/internal/fleet/registry"
)

// wireCounter totals the bytes and messages through verifier endpoints.
// The verifier's receive pump and its sender run on different
// goroutines, hence the atomics.
type wireCounter struct {
	bytes, msgs atomic.Int64
}

// countingEP is the verifier endpoint wrapper passed through
// core.AttestOptions.WrapVerifierChannel. onClose, if set, runs when the
// verifier closes the endpoint at the end of its session.
type countingEP struct {
	channel.Endpoint
	c       *wireCounter
	onClose func()
}

func (e *countingEP) Send(m []byte) error {
	e.c.bytes.Add(int64(len(m)))
	e.c.msgs.Add(1)
	return e.Endpoint.Send(m)
}

func (e *countingEP) Recv() ([]byte, error) {
	m, err := e.Endpoint.Recv()
	if err == nil {
		e.c.bytes.Add(int64(len(m)))
		e.c.msgs.Add(1)
	}
	return m, err
}

func (e *countingEP) Close() error {
	if e.onClose != nil {
		e.onClose()
	}
	return e.Endpoint.Close()
}

// proverProbe wraps the prover's endpoint. The prover serves one message
// per Recv, so the time from a Recv's return to the next Recv call is
// work (ICAP, fabric readback, prover-side CMAC, the reply's Send) and
// the time inside Recv is waiting for the verifier. Serve runs on one
// goroutine, so the probe needs no locking.
type proverProbe struct {
	channel.Endpoint
	last       time.Time
	busy, idle time.Duration
	// intervals are the busy intervals, kept for the span file.
	intervals [][2]time.Time
}

func (p *proverProbe) Recv() ([]byte, error) {
	t := time.Now()
	if !p.last.IsZero() {
		p.busy += t.Sub(p.last)
		p.intervals = append(p.intervals, [2]time.Time{p.last, t})
	}
	m, err := p.Endpoint.Recv()
	p.last = time.Now()
	p.idle += p.last.Sub(t)
	return m, err
}

// timedSpender times every Spend of the anti-replay journal. onSpend
// receives the nonce and the call's interval.
type timedSpender struct {
	inner   fleet.NonceSpender
	onSpend func(nonce uint64, start, end time.Time)
}

func (s *timedSpender) Spend(nonce uint64) error {
	t := time.Now()
	err := s.inner.Spend(nonce)
	s.onSpend(nonce, t, time.Now())
	return err
}

// timedRegistry times every RotateKey call into the registry.
type timedRegistry struct {
	registry.Registry
	mu    sync.Mutex
	calls [][2]time.Time
}

func (r *timedRegistry) RotateKey(id uint64) error {
	t := time.Now()
	err := r.Registry.RotateKey(id)
	end := time.Now()
	r.mu.Lock()
	r.calls = append(r.calls, [2]time.Time{t, end})
	r.mu.Unlock()
	return err
}

// memSnap is the allocator and GC state at one instant.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives the index-th value of one named input stream from the
// workload seed (splitmix64), so every generated input is a pure
// function of --seed.
func mix(seed int64, stream, index uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + index*0x8CB92BA72F3D8DD7
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Input streams of mix.
const (
	streamProvision = iota + 1
	streamNonce
	streamTamper
	streamRetry
)

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
