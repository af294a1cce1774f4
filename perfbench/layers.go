package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"testing"
	"time"

	"sacha/internal/aescore"
	"sacha/internal/attestation"
	"sacha/internal/cmac"
	"sacha/internal/compress"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/icap"
	"sacha/internal/protocol"
	"sacha/internal/sim"
	"sacha/internal/verifier"
)

// layerMetrics are the per-layer metrics every traced run reports, with
// their units. A workload that does not exercise a layer reports 0 for
// it (README.md says which); BENCHMARK.json lists the same names.
var layerMetrics = []struct{ name, unit string }{
	{"attestation.config_ms", "ms"},
	{"attestation.readback_ms", "ms"},
	{"attestation.checksum_ms", "ms"},
	{"attestation.retries_per_session", "count"},
	{"attestation.delta_applied_ratio", "ratio"},
	{"attestation.frames_rewritten_per_session", "count"},
	{"prover.busy_ms", "ms"},
	{"prover.idle_ms", "ms"},
	{"channel.msgs_per_frame", "count"},
	{"plan.build_ms", "ms"},
	{"plan.patch_ms", "ms"},
	{"plan.builds_per_sweep", "count"},
	{"plan.cache_hits_per_sweep", "count"},
	{"plan.patches_per_sweep", "count"},
	{"dispatch.presession_ms", "ms"},
	{"dispatch.device_overhead_ms", "ms"},
	{"dispatch.worker_util", "ratio"},
	{"dispatch.tail_ms", "ms"},
	{"dispatch.steals_per_sweep", "count"},
	{"registry.rotate_ms", "ms"},
	{"registry.reopen_ms", "ms"},
	{"store.nonce_spend_us_p50", "us"},
	{"store.nonce_spend_us_p90", "us"},
	{"store.reopen_ms", "ms"},
	{"store.journal_bytes_per_sweep", "B"},
	{"runtime.gc_per_session", "count"},
	{"trace.overhead_pct", "%"},
}

// spanNames are the spans whose self time is reported, per session, as
// self_ms.<name>.
var spanNames = []string{
	"sweep", "dispatch.presession", "registry.rotate", "device",
	"store.nonce_spend", "plan.patch_link", "plan.patch", "session",
	"verifier.run", "prover.busy", "attestation.config",
	"attestation.readback", "attestation.checksum", "attestation.verdict",
}

// fillLayers reports 0 for every per-layer metric the workload did not
// measure, so each traced run names the same metrics.
func fillLayers(m metrics) {
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
}

// addSelfTimes reports each span name's self time per session.
func addSelfTimes(m metrics, tr *tracer, sessions int) {
	self := tr.selfTime()
	for _, n := range spanNames {
		m.set("self_ms."+n, ms(self[n])/float64(sessions), "ms")
	}
}

// kernel is one layer's hot function, run by testing.Benchmark.
type kernel struct {
	name  string
	bench func(*testing.B)
}

// kernelInput is the workload's own frames: the dynamic frames of its
// golden image, the device fabric that holds them, and its plan spec.
type kernelInput struct {
	geo    *device.Geometry
	frames []int
	golden *fabric.Image
	fab    *fabric.Fabric
	spec   attestation.Spec
}

func newKernelInput(sys *core.System, opts verifier.Options) (*kernelInput, error) {
	spec, err := sys.PatchableSpec(opts)
	if err != nil {
		return nil, err
	}
	return &kernelInput{geo: sys.Geo, frames: sys.DynFrames(), golden: spec.Golden, fab: sys.Device.Fabric, spec: spec}, nil
}

// frameBytes serialises a frame the way the protocol puts it on the
// wire and the CMAC absorbs it.
func frameBytes(words []uint32) []byte {
	b := make([]byte, 0, 4*len(words))
	for _, w := range words {
		b = binary.BigEndian.AppendUint32(b, w)
	}
	return b
}

// Sinks keep benchmarked results alive without boxing them.
var (
	sinkBytes []byte
	sinkMsg   *protocol.Message
	sinkPlan  *attestation.Plan
	sinkTag   [16]byte
)

// kernels returns the layer kernels over the input's frames.
func (in *kernelInput) kernels() []kernel {
	n := len(in.frames)
	raw := make([][]byte, n)
	for i, f := range in.frames {
		raw[i] = frameBytes(in.golden.Frame(f))
	}
	var key [16]byte
	return []kernel{
		{"aescore.block", func(b *testing.B) {
			c, err := aescore.New(key[:])
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb := raw[(i/20)%n]
				off := (i % 20) * 16
				c.Encrypt(dst, fb[off:off+16])
			}
		}},
		{"cmac.frame", func(b *testing.B) {
			mac, err := cmac.New(key[:])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mac.Update(raw[i%n])
			}
			sinkTag = mac.Sum()
		}},
		{"protocol.encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := in.frames[i%n]
				msg := protocol.Message{Type: protocol.MsgFrameData, FrameIndex: uint32(f), Words: in.golden.Frame(f)}
				enc, err := msg.Encode()
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = enc
			}
		}},
		{"protocol.decode", func(b *testing.B) {
			enc := make([][]byte, n)
			for i, f := range in.frames {
				msg := protocol.Message{Type: protocol.MsgFrameData, FrameIndex: uint32(f), Words: in.golden.Frame(f)}
				e, err := msg.Encode()
				if err != nil {
					b.Fatal(err)
				}
				enc[i] = e
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := protocol.Decode(enc[i%n])
				if err != nil {
					b.Fatal(err)
				}
				sinkMsg = m
			}
		}},
		{"icap.frame_write", func(b *testing.B) {
			streams := make([][]uint32, n)
			for i, f := range in.frames {
				s, err := icap.ConfigFrameStream(in.geo, f, in.golden.Frame(f))
				if err != nil {
					b.Fatal(err)
				}
				streams[i] = s
			}
			port := icap.New(fabric.New(in.geo), sim.NewClock("icap", 100_000_000))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := port.Write(streams[i%n]); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"fabric.readback", func(b *testing.B) {
			out := make([]uint32, device.FrameWords)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.fab.ReadbackFrameInto(in.frames[i%n], out); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"compress.encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBytes = compress.Encode(in.golden.Frame(in.frames[i%n]))
			}
		}},
		{"plan.cache_hit", func(b *testing.B) {
			cache := attestation.NewPlanCache(1)
			if _, _, err := cache.GetOrBuild(in.spec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, built, err := cache.GetOrBuild(in.spec)
				if err != nil || built {
					b.Fatalf("cache hit expected: built=%v err=%v", built, err)
				}
				sinkPlan = p
			}
		}},
	}
}

// compressRatio is the compressed size of the input's frames over their
// raw size.
func (in *kernelInput) compressRatio() float64 {
	var enc, raw int
	for _, f := range in.frames {
		enc += len(compress.Encode(in.golden.Frame(f)))
		raw += 4 * device.FrameWords
	}
	return float64(enc) / float64(raw)
}

// addKernels runs every kernel through testing.Benchmark for about d
// each and reports its ns/op and allocs/op.
func addKernels(m metrics, sys *core.System, opts verifier.Options, d time.Duration) error {
	in, err := newKernelInput(sys, opts)
	if err != nil {
		return fmt.Errorf("kernel input: %w", err)
	}
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		return err
	}
	for _, k := range in.kernels() {
		r := testing.Benchmark(k.bench)
		if r.N == 0 {
			return fmt.Errorf("kernel %s failed", k.name)
		}
		m.set(k.name+"_ns", float64(r.T.Nanoseconds())/float64(r.N), "ns")
		m.set(k.name+"_allocs", float64(r.MemAllocs)/float64(r.N), "count")
	}
	m.set("compress.ratio", in.compressRatio(), "ratio")
	return nil
}
