package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/channel"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fleet"
	"sacha/internal/fleet/dispatch"
	"sacha/internal/fleet/registry"
	"sacha/internal/netlist"
	"sacha/internal/obs"
	"sacha/internal/prover"
	"sacha/internal/store"
	"sacha/internal/verifier"
)

// Fleet layout of sacha-fleetd's steady state: 32 devices (odd IDs
// TinyLX, even IDs SmallLX) on 2 shards with 2 sessions in flight.
const (
	fleetSize        = 32
	fleetShards      = 2
	fleetConcurrency = 2
	fleetPlanCache   = 8
)

var storeOpts = store.Options{Sync: store.SyncAlways, NonceTTL: 24 * time.Hour}

// fleetFactory is sacha-fleetd's device factory with the provisioning
// seed derived from the workload seed.
func fleetFactory(seed int64) func(uint64) (*core.System, error) {
	prov := int64(mix(seed, streamProvision, 0) >> 33)
	return func(id uint64) (*core.System, error) {
		geo := device.TinyLX()
		if id%2 == 0 {
			geo = device.SmallLX()
		}
		return core.NewSystem(core.Config{
			Geo:        geo,
			App:        netlist.Blinker(8),
			KeyMode:    core.KeyDynPUF,
			DeviceID:   id,
			BuildID:    0xF1EE7,
			LabLatency: -1,
			Seed:       prov*0x1000193 + int64(id),
		})
	}
}

// fleetRig is one provisioned fleet over its own state directory.
type fleetRig struct {
	cfg    config
	dir    string
	st     *store.Store
	dreg   *registry.Durable
	disp   *dispatch.Dispatcher
	base   fleet.SweepConfig
	sweeps uint64 // sweeps run so far; indexes the seeded sweep inputs
}

// setupFleet provisions the fleet through the durable registry over a
// fresh state directory and runs the first sweep, which builds the
// plans, fills the per-shard plan caches and warms the trust ledger.
func setupFleet(cfg config, rotate bool) (*fleetRig, int, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "state-"+cfg.Workload+"-")
	if err != nil {
		return nil, 0, err
	}
	st, err := store.Open(dir, storeOpts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("opening store: %w", err)
	}
	r := &fleetRig{cfg: cfg, dir: dir, st: st}
	if r.dreg, err = registry.NewDurable(fleetSize, fleetFactory(cfg.Seed), st.Enrollment()); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("provisioning: %w", err)
	}
	r.disp = dispatch.New(dispatch.Config{Shards: fleetShards, PlanCacheSize: fleetPlanCache})
	r.base = fleet.SweepConfig{
		Concurrency: fleetConcurrency,
		SharePlans:  true,
		Freshness:   attestation.PerDevice,
		Compress:    true,
		Delta:       true,
		Trust:       r.dreg.Ledger(),
		Nonces:      st.Nonces(),
	}
	if rotate {
		r.base.Freshness = attestation.RotateKey
	}
	n, err := r.sweep(&sweepStats{}, nil)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return r, n, nil
}

// close closes the store and removes the state directory. Both errors
// are dropped: the directory is scratch space under .bench_build and
// nothing reads it again.
func (r *fleetRig) close() {
	if r.st != nil {
		r.st.Close()
	}
	os.RemoveAll(r.dir)
}

// devRec is the benchmark's view of one device in one sweep.
type devRec struct {
	taken, linked, closed time.Time
	spend                 [2]time.Time
}

// sweepStats accumulates the sweeps of one timed phase.
type sweepStats struct {
	sessionStats
	sweeps                              int
	presessionMS, overheadMS, tailMS    []float64
	busy, capacity                      time.Duration
	steals, builds, hits, patches       int
	spendUS, rotateMS, buildMS, patchMS []float64
}

// sweep runs one Dispatcher.Sweep with a seeded NonceSeed and one
// seeded tampered member, checks every verdict, and adds the sweep to
// ss. With a tracer the nonce journal and the registry are timed
// through wrappers and the sweep's spans are recorded. It returns the
// number of devices attested.
func (r *fleetRig) sweep(ss *sweepStats, tr *tracer) (int, error) {
	k := r.sweeps
	r.sweeps++
	seed := r.cfg.Seed
	nonceSeed := mix(seed, streamNonce, k)
	ids := r.dreg.IDs()
	tamperID := ids[mix(seed, streamTamper, k)%uint64(len(ids))]
	recs := make(map[uint64]*devRec, len(ids))
	for _, id := range ids {
		recs[id] = &devRec{}
	}

	sc := r.base
	sc.NonceSeed = &nonceSeed
	var reg registry.Registry = r.dreg
	var treg *timedRegistry
	if tr != nil {
		treg = &timedRegistry{Registry: r.dreg}
		reg = treg
		byNonce := make(map[uint64]*devRec, len(ids))
		for _, id := range ids {
			byNonce[fleet.DeviceNonce(nonceSeed, id)] = recs[id]
		}
		sc.Nonces = &timedSpender{inner: r.base.Nonces, onSpend: func(n uint64, a, b time.Time) {
			if rec := byNonce[n]; rec != nil {
				rec.spend = [2]time.Time{a, b}
			}
		}}
	}
	// opts fires on the worker that takes the device; the channel
	// wrapper fires once the device's session is about to start, and its
	// Close when the verifier ends the session. Each devRec is written by
	// the goroutines of its own device only and read after Sweep returns.
	opts := func(id uint64) core.AttestOptions {
		rec := recs[id]
		rec.taken = time.Now()
		o := core.AttestOptions{WrapVerifierChannel: func(ep channel.Endpoint) channel.Endpoint {
			rec.linked = time.Now()
			return &countingEP{Endpoint: ep, c: &ss.wire, onClose: func() { rec.closed = time.Now() }}
		}}
		if id == tamperID {
			sys, _ := r.dreg.System(id)
			frame := sys.DynFrames()[1]
			o.TamperDevice = func(d *prover.Device) { d.Fabric.Mem.Frame(frame)[2] ^= 4 }
		}
		return o
	}
	t0 := time.Now()
	rep, err := r.disp.Sweep(context.Background(), reg, sc, opts)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("sweep %d: %w", k, err)
	}
	for _, res := range rep.Results {
		want := obs.VerdictHealthy
		if res.DeviceID == tamperID && !r.cfg.FlipExpect {
			want = obs.VerdictCompromised
		}
		if got := res.Verdict(); got != want {
			return 0, fmt.Errorf("%w: sweep %d, device %d: %s, expected %s (err: %v)", errWrongVerdict, k, res.DeviceID, got, want, res.Err)
		}
	}

	wall := t1.Sub(t0)
	ss.sweeps++
	ss.wall += wall
	ss.capacity += wall * fleetConcurrency
	ss.steals += rep.Steals
	ss.builds += rep.PlansBuilt
	ss.hits += rep.PlanCacheHits
	ss.patches += rep.PlanPatches
	first := t1
	lastEnd := make(map[int]time.Time)
	for _, res := range rep.Results {
		rec := recs[res.DeviceID]
		ss.busy += res.Elapsed
		// Latency samples come from the largest geometry only: the 16/16
		// TinyLX/SmallLX split would put a pooled median on the class
		// boundary, between two modes 25x apart.
		ss.add(res.Report, ms(res.Elapsed), res.DeviceID%2 == 0)
		ss.overheadMS = append(ss.overheadMS, ms(rec.linked.Sub(rec.taken)))
		if rec.taken.Before(first) {
			first = rec.taken
		}
		if rec.closed.After(lastEnd[res.Worker]) {
			lastEnd[res.Worker] = rec.closed
		}
	}
	ss.presessionMS = append(ss.presessionMS, ms(first.Sub(t0)))
	idleFrom := t1
	for _, t := range lastEnd {
		if t.Before(idleFrom) {
			idleFrom = t
		}
	}
	ss.tailMS = append(ss.tailMS, ms(t1.Sub(idleFrom)))
	if tr == nil {
		return len(rep.Results), nil
	}

	root := tr.add("sweep", int(k), -1, t0, t1)
	pre := tr.add("dispatch.presession", int(k), root, t0, first)
	var rotating time.Duration
	for _, c := range treg.calls {
		tr.add("registry.rotate", int(k), pre, c[0], c[1])
		ss.rotateMS = append(ss.rotateMS, ms(c[1].Sub(c[0])))
		rotating += c[1].Sub(c[0])
	}
	if rep.PlansBuilt > 0 {
		// Plans are built inside the pre-session stretch; what of it is
		// not key rotation is charged to the builds.
		ss.buildMS = append(ss.buildMS, ms(first.Sub(t0)-rotating)/float64(rep.PlansBuilt))
	}
	for _, res := range rep.Results {
		rec := recs[res.DeviceID]
		dev := tr.add("device", int(k), root, rec.taken, rec.closed)
		tr.add("store.nonce_spend", int(k), dev, rec.spend[0], rec.spend[1])
		tr.add("plan.patch_link", int(k), dev, rec.spend[1], rec.linked)
		sess := tr.add("session", int(k), dev, rec.linked, rec.closed)
		ph := res.Report.Phases
		tr.addPhases(int(k), sess, rec.closed, [4]time.Duration{ph.Config, ph.Readback, ph.Checksum, ph.Verdict})
		ss.spendUS = append(ss.spendUS, float64(rec.spend[1].Sub(rec.spend[0]))/float64(time.Microsecond))
		ss.patchMS = append(ss.patchMS, ms(rec.linked.Sub(rec.spend[1])))
	}
	return len(rep.Results), nil
}

// measure runs sweeps back to back for d (at least one).
func (r *fleetRig) measure(d time.Duration, tr *tracer) (*sweepStats, error) {
	ss := &sweepStats{}
	ss.mem0 = readMem()
	start := time.Now()
	for ss.sweeps == 0 || time.Since(start) < d {
		if _, err := r.sweep(ss, tr); err != nil {
			return nil, err
		}
	}
	ss.mem1 = readMem()
	return ss, nil
}

func runFleet(cfg config, rotate bool) (*outcome, error) {
	var (
		rig    *fleetRig
		setups []float64
	)
	attempted := 0
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for i := 0; i < cfg.SetupReps; i++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		runtime.GC()
		t := time.Now()
		r, n, err := setupFleet(cfg, rotate)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		attempted += n
		rig = r
	}
	for i := 0; i < cfg.WarmSweeps; i++ {
		n, err := rig.sweep(&sweepStats{}, nil)
		if err != nil {
			return nil, err
		}
		attempted += n
	}
	out := &outcome{Metrics: metrics{}}
	measure := cfg.Measure
	if cfg.Trace {
		measure /= 2
	}
	plain, err := rig.measure(measure, nil)
	if err != nil {
		return nil, err
	}
	attempted += plain.sessions
	if !cfg.Trace {
		out.Attempted = attempted
		plain.endToEnd(out.Metrics, setups)
		return out, nil
	}

	out.Spans = newTracer()
	size0, err := dirSize(rig.dir)
	if err != nil {
		return nil, err
	}
	ss, err := rig.measure(measure, out.Spans)
	if err != nil {
		return nil, err
	}
	attempted += ss.sessions
	out.Attempted = attempted
	size1, err := dirSize(rig.dir)
	if err != nil {
		return nil, err
	}
	m := out.Metrics
	sweeps := float64(ss.sweeps)
	ss.attestation(m)
	m.set("plan.build_ms", median(ss.buildMS), "ms")
	m.set("plan.patch_ms", median(ss.patchMS), "ms")
	m.set("plan.builds_per_sweep", float64(ss.builds)/sweeps, "count")
	m.set("plan.cache_hits_per_sweep", float64(ss.hits)/sweeps, "count")
	m.set("plan.patches_per_sweep", float64(ss.patches)/sweeps, "count")
	m.set("dispatch.presession_ms", median(ss.presessionMS), "ms")
	m.set("dispatch.device_overhead_ms", median(ss.overheadMS), "ms")
	m.set("dispatch.worker_util", ratio(float64(ss.busy), float64(ss.capacity)), "ratio")
	m.set("dispatch.tail_ms", median(ss.tailMS), "ms")
	m.set("dispatch.steals_per_sweep", float64(ss.steals)/sweeps, "count")
	m.set("registry.rotate_ms", median(ss.rotateMS), "ms")
	m.set("store.nonce_spend_us_p50", median(ss.spendUS), "us")
	m.set("store.nonce_spend_us_p90", quantile(ss.spendUS, 0.9), "us")
	m.set("store.journal_bytes_per_sweep", float64(size1-size0)/sweeps, "B")
	m.set("trace.overhead_pct", overheadPct(&plain.sessionStats, &ss.sessionStats), "%")
	addSelfTimes(m, out.Spans, ss.sessions)

	// The kernel rows run on the frames of one SmallLX member, with the
	// plan options the sweep builds its class plans with.
	sys, _ := rig.dreg.System(2)
	if err := addKernels(m, sys, verifier.Options{Compress: true, Delta: true}, cfg.KernelTime); err != nil {
		return nil, err
	}
	if err := rig.reopen(m); err != nil {
		return nil, err
	}
	fillLayers(m)
	return out, nil
}

// reopen closes the run's store and times its boot replay and the
// durable registry's reconciliation over it.
func (r *fleetRig) reopen(m metrics) error {
	if err := r.st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	r.st = nil
	t := time.Now()
	st, err := store.Open(r.dir, storeOpts)
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	r.st = st
	m.set("store.reopen_ms", ms(time.Since(t)), "ms")
	t = time.Now()
	if _, err := registry.NewDurable(fleetSize, fleetFactory(r.cfg.Seed), st.Enrollment()); err != nil {
		return fmt.Errorf("reconciling registry: %w", err)
	}
	m.set("registry.reopen_ms", ms(time.Since(t)), "ms")
	return nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
