package main

import (
	"testing"

	"sacha/internal/verifier"
)

// BenchmarkKernels runs the kernel rows of a traced attest-lx240t run
// on the same XC6VLX240T golden frames, through the same functions:
//
//	cd perfbench && go test -run '^$' -bench Kernels -benchmem
func BenchmarkKernels(b *testing.B) {
	rig, err := setupAttest(1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := newKernelInput(rig.sys, verifier.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range in.kernels() {
		b.Run(k.name, k.bench)
	}
}
