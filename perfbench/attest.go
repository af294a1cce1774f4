package main

import (
	"fmt"
	"runtime"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/prover"
	"sacha/internal/verifier"
)

// attestRig is the attest-lx240t set-up: one provisioned XC6VLX240T
// (StatPUF key) and its nonce-patchable plan.
type attestRig struct {
	sys   *core.System
	plan  *attestation.Plan
	build time.Duration
	retry verifier.RetryPolicy
}

func setupAttest(seed int64) (*attestRig, error) {
	sys, err := core.NewSystem(core.Config{
		Geo:        device.XC6VLX240T(),
		KeyMode:    core.KeyStatPUF,
		DeviceID:   1,
		BuildID:    0x5AC4A,
		LabLatency: -1,
		Seed:       int64(mix(seed, streamProvision, 0) >> 1),
	})
	if err != nil {
		return nil, fmt.Errorf("provisioning: %w", err)
	}
	t := time.Now()
	plan, err := sys.PatchablePlan(verifier.Options{})
	if err != nil {
		return nil, fmt.Errorf("plan build: %w", err)
	}
	retry := verifier.DefaultRetryPolicy()
	retry.Window = 16
	retry.Seed = int64(mix(seed, streamRetry, 0) >> 1)
	return &attestRig{sys: sys, plan: plan, build: time.Since(t), retry: retry}, nil
}

// sessionStats accumulates the sessions of one timed phase.
type sessionStats struct {
	wall                                  time.Duration
	sessionMS                             []float64
	sessions, frames, configured, retries int
	config, readback, checksum            []float64
	deltaOn, deltaApplied                 int
	wire                                  wireCounter
	mem0, mem1                            memSnap
}

// add counts one session. sample selects the sessions whose wall time
// and phases enter the latency percentiles: those of the workload's
// largest geometry.
func (s *sessionStats) add(rep *attestation.Report, wallMS float64, sample bool) {
	s.sessions++
	s.frames += rep.FramesRead
	s.configured += rep.FramesConfigured
	s.retries += rep.Retries + rep.TransportFaults
	if sample {
		s.sessionMS = append(s.sessionMS, wallMS)
		s.config = append(s.config, ms(rep.Phases.Config))
		s.readback = append(s.readback, ms(rep.Phases.Readback))
		s.checksum = append(s.checksum, ms(rep.Phases.Checksum))
	}
	if rep.Delta.Enabled {
		s.deltaOn++
		if rep.Delta.Applied {
			s.deltaApplied++
		}
	}
}

// endToEnd computes the end-to-end metrics of a timed phase and of the
// set-ups that preceded it.
func (s *sessionStats) endToEnd(m metrics, setups []float64) {
	frames := float64(s.frames)
	m.set("setup_s", median(setups), "s")
	m.set("session_ms_p50", median(s.sessionMS), "ms")
	m.set("session_ms_p90", quantile(s.sessionMS, 0.9), "ms")
	m.set("frames_per_s", frames/s.wall.Seconds(), "1/s")
	m.set("devices_per_s", float64(s.sessions)/s.wall.Seconds(), "1/s")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	m.set("allocs_per_frame", float64(s.mem1.mallocs-s.mem0.mallocs)/frames, "count")
	m.set("alloc_bytes_per_frame", float64(s.mem1.bytes-s.mem0.bytes)/frames, "B")
	m.set("wire_bytes_per_frame", float64(s.wire.bytes.Load())/frames, "B")
}

// attestation computes the attestation- and channel-layer metrics.
func (s *sessionStats) attestation(m metrics) {
	n := float64(s.sessions)
	m.set("attestation.config_ms", median(s.config), "ms")
	m.set("attestation.readback_ms", median(s.readback), "ms")
	m.set("attestation.checksum_ms", median(s.checksum), "ms")
	m.set("attestation.retries_per_session", float64(s.retries)/n, "count")
	m.set("attestation.delta_applied_ratio", ratio(float64(s.deltaApplied), float64(s.deltaOn)), "ratio")
	m.set("attestation.frames_rewritten_per_session", float64(s.configured)/n, "count")
	m.set("channel.msgs_per_frame", float64(s.wire.msgs.Load())/float64(s.frames), "count")
	m.set("runtime.gc_per_session", float64(s.mem1.gcs-s.mem0.gcs)/n, "count")
}

// attestPhase is one timed closed loop of attest-lx240t sessions.
type attestPhase struct {
	sessionStats
	patchMS, busyMS, idleMS []float64
}

// session runs one honest attestation under a fresh seeded nonce. With
// a tracer it also times the prover through a proverProbe and records
// the session's spans.
func (r *attestRig) session(nonce uint64, ph *attestPhase, tr *tracer, trace int) error {
	t0 := time.Now()
	plan, err := r.plan.WithNonce(nonce)
	if err != nil {
		return fmt.Errorf("patching nonce: %w", err)
	}
	t1 := time.Now()
	opts := core.AttestOptions{
		Opts: verifier.Options{Retry: r.retry},
		WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			return &countingEP{Endpoint: ep, c: &ph.wire}
		},
	}
	serve := r.sys.Device.Serve
	var probe *proverProbe
	if tr != nil {
		serve = func(ep channel.Endpoint) error {
			probe = &proverProbe{Endpoint: ep}
			return r.sys.Device.Serve(probe)
		}
	}
	rep, err := r.sys.AttestPlanAgainst(plan, serve, opts)
	t2 := time.Now()
	if err != nil || !rep.Accepted {
		return fmt.Errorf("%w: honest session with nonce %#x: accepted=%v err=%v", errWrongVerdict, nonce, rep != nil && rep.Accepted, err)
	}
	ph.patchMS = append(ph.patchMS, ms(t1.Sub(t0)))
	ph.add(rep, ms(t2.Sub(t0)), true)
	if tr != nil {
		ph.busyMS = append(ph.busyMS, ms(probe.busy))
		ph.idleMS = append(ph.idleMS, ms(probe.idle))
		root := tr.add("session", trace, -1, t0, t2)
		tr.add("plan.patch", trace, root, t0, t1)
		run := tr.add("verifier.run", trace, root, t1, t2)
		tr.addPhases(trace, run, t2, [4]time.Duration{rep.Phases.Config, rep.Phases.Readback, rep.Phases.Checksum, rep.Phases.Verdict})
		for _, iv := range probe.intervals {
			tr.add("prover.busy", trace, root, iv[0], iv[1])
		}
	}
	return nil
}

// tamperedSession runs one untimed attestation whose device flips a
// dynamic-frame bit after configuration; the verifier must reject it.
func (r *attestRig) tamperedSession(nonce uint64, flip bool) error {
	plan, err := r.plan.WithNonce(nonce)
	if err != nil {
		return fmt.Errorf("patching nonce: %w", err)
	}
	frame := r.sys.DynFrames()[1]
	rep, err := r.sys.AttestWithPlan(plan, core.AttestOptions{
		Opts:         verifier.Options{Retry: r.retry},
		TamperDevice: func(d *prover.Device) { d.Fabric.Mem.Frame(frame)[2] ^= 4 },
	})
	if err != nil {
		return fmt.Errorf("%w: tampered session ended without a verdict: %v", errWrongVerdict, err)
	}
	if rep.Accepted != flip {
		return fmt.Errorf("%w: tampered session accepted=%v, expected %v", errWrongVerdict, rep.Accepted, flip)
	}
	return nil
}

// measure runs sessions back to back for d (at least one).
func (r *attestRig) measure(seed int64, next *uint64, d time.Duration, tr *tracer) (*attestPhase, error) {
	ph := &attestPhase{}
	ph.mem0 = readMem()
	start := time.Now()
	for ph.sessions == 0 || time.Since(start) < d {
		if err := r.session(mix(seed, streamNonce, *next), ph, tr, int(*next)); err != nil {
			return nil, err
		}
		*next++
	}
	ph.wall = time.Since(start)
	ph.mem1 = readMem()
	return ph, nil
}

func runAttest(cfg config) (*outcome, error) {
	var (
		rig            *attestRig
		setups, builds []float64
	)
	for i := 0; i < cfg.SetupReps; i++ {
		rig = nil
		runtime.GC()
		t := time.Now()
		r, err := setupAttest(cfg.Seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		builds = append(builds, ms(r.build))
		rig = r
	}
	var next uint64
	// One untimed session warms the allocator and the verifier's
	// scratch buffers.
	if err := rig.session(mix(cfg.Seed, streamNonce, next), &attestPhase{}, nil, 0); err != nil {
		return nil, err
	}
	next++
	out := &outcome{Metrics: metrics{}}
	measure := cfg.Measure
	if cfg.Trace {
		measure /= 2
	}
	plain, err := rig.measure(cfg.Seed, &next, measure, nil)
	if err != nil {
		return nil, err
	}
	ph := plain
	if cfg.Trace {
		out.Spans = newTracer()
		if ph, err = rig.measure(cfg.Seed, &next, measure, out.Spans); err != nil {
			return nil, err
		}
	}
	if err := rig.tamperedSession(mix(cfg.Seed, streamNonce, next), cfg.FlipExpect); err != nil {
		return nil, err
	}
	next++
	out.Attempted = int(next)

	m := out.Metrics
	if !cfg.Trace {
		ph.endToEnd(m, setups)
		return out, nil
	}
	ph.attestation(m)
	m.set("prover.busy_ms", median(ph.busyMS), "ms")
	m.set("prover.idle_ms", median(ph.idleMS), "ms")
	m.set("plan.build_ms", median(builds), "ms")
	m.set("plan.patch_ms", median(ph.patchMS), "ms")
	// Every session patches the set-up plan; none builds or hits a cache.
	m.set("plan.patches_per_sweep", 1, "count")
	m.set("trace.overhead_pct", overheadPct(&plain.sessionStats, &ph.sessionStats), "%")
	addSelfTimes(m, out.Spans, ph.sessions)
	if err := addKernels(m, rig.sys, verifier.Options{}, cfg.KernelTime); err != nil {
		return nil, err
	}
	fillLayers(m)
	return out, nil
}

// overheadPct is how much slower the traced phase read frames back
// than the untraced one, in percent of the traced rate.
func overheadPct(plain, traced *sessionStats) float64 {
	p := float64(plain.frames) / plain.wall.Seconds()
	t := float64(traced.frames) / traced.wall.Seconds()
	return (p/t - 1) * 100
}
