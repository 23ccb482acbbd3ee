package main

import (
	"runtime"
	"time"

	"heap/internal/core"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/rns"
	"heap/internal/tfhe"
)

// kernelTimes are the isolated kernel timings of one ring, each the median
// per-call time over several rounds.
type kernelTimes struct {
	ntt, intt, mac, extend, moddown time.Duration // one limb / one conversion
	extprod, rotate, batch          time.Duration
}

// kernelRounds is how many timed rounds each kernel runs; kernelRound is the
// target length of one round.
const (
	kernelRounds = 5
	kernelRound  = 40 * time.Millisecond
)

// perCall times f in kernelRounds rounds of equal call counts, sized so a
// round lasts about kernelRound, and returns the median per-call time.
func perCall(f func()) time.Duration {
	t0 := time.Now()
	f()
	one := time.Since(t0)
	calls := 1
	if one > 0 && one < kernelRound {
		calls = int(kernelRound / one)
	}
	xs := make([]float64, kernelRounds)
	for r := range xs {
		t := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		xs[r] = float64(time.Since(t)) / float64(calls)
	}
	return time.Duration(median(xs))
}

// measureKernels times the layers beneath a bootstrap at bt's ring: one limb
// of the forward and inverse NTT and of the MAC with the dispatched ISA, one
// gadget-digit basis extension and one ModDown, one external product, one
// blind rotation, and one key-major batch over job (the size of a served
// job) with the given batch workers. bt must hold its blind-rotate key.
func measureKernels(bt *core.Bootstrapper, job []*rlwe.LWECiphertext, batchWorkers int) kernelTimes {
	p := bt.Params.Parameters
	s := ring.NewSampler(7)
	r := p.QBasis.Rings[0]
	a, b, c := r.NewPoly(), r.NewPoly(), r.NewPoly()
	s.UniformPoly(r, a)
	s.UniformPoly(r, b)
	var k kernelTimes
	k.ntt = perCall(func() { r.NTT(a) })
	k.intt = perCall(func() { r.INTT(a) })
	k.mac = perCall(func() { r.MulCoeffsAndAdd(a, b, c) })

	// One gadget digit (the first alpha limbs of Q) extended over all of
	// Q‖P, as the key switch's decomposition does at the top level.
	alpha := p.Alpha()
	src := &rns.Basis{Rings: p.QBasis.Rings[:alpha], LogN: p.LogN, N: p.N()}
	ext := rns.NewExtender(src, p.QPBasis)
	digit := src.NewPoly()
	for i, l := range digit.Limbs {
		s.UniformPoly(src.Rings[i], l)
	}
	dst := p.QPBasis.NewPoly()
	dstIdx := make([]int, dst.Level())
	for i := range dstIdx {
		dstIdx[i] = i
	}
	esc := rns.NewExtendScratch(alpha, p.N())
	k.extend = perCall(func() { ext.ExtendSelectedWith(digit, dst, dstIdx, esc) })

	md := rns.NewModDown(p.QBasis, p.PBasis)
	cQ, cP, out := p.QBasis.NewPoly(), p.PBasis.NewPoly(), p.QBasis.NewPoly()
	for i, l := range cQ.Limbs {
		s.UniformPoly(p.QBasis.Rings[i], l)
	}
	for i, l := range cP.Limbs {
		s.UniformPoly(p.PBasis.Rings[i], l)
	}
	msc := md.NewScratch()
	k.moddown = perCall(func() { md.ApplyWith(cQ, cP, out, msc) })

	ks := rlwe.NewKeySwitcher(p)
	ksc := ks.NewScratch()
	acc := bt.NewAccumulator()
	for i := range acc.C0.Limbs {
		s.UniformPoly(p.QBasis.Rings[i], acc.C0.Limbs[i])
		s.UniformPoly(p.QBasis.Rings[i], acc.C1.Limbs[i])
	}
	prod := bt.NewAccumulator()
	rgsw := bt.BlindRotateKey().Plus[0]
	k.extprod = perCall(func() { ks.ExternalProductInto(prod, acc, rgsw, ksc) })

	rsc := bt.NewRotateScratch()
	k.rotate = perCall(func() { bt.BlindRotateOneInto(prod, job[0], rsc) })

	brk := bt.BlindRotateKey()
	opts := tfhe.BatchOptions{Workers: batchWorkers}
	k.batch = perCall(func() {
		accs := make([]*rlwe.Ciphertext, len(job))
		if err := bt.BlindRotateBatchWithKey(accs, job, brk, opts); err != nil {
			panic(err) // the key and LWEs are the bootstrapper's own
		}
	})
	return k
}

// set reports the kernel timings, and the share of the blind-rotation
// stage the external products explain.
func (k kernelTimes) set(rep *report) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	n := kernelRounds
	rep.set("ring.ntt_us", us(k.ntt), "us", n)
	rep.set("ring.intt_us", us(k.intt), "us", n)
	rep.set("ring.mac_us", us(k.mac), "us", n)
	rep.set("rns.extend_us", us(k.extend), "us", n)
	rep.set("rns.moddown_us", us(k.moddown), "us", n)
	rep.set("rlwe.extprod_ms", ms(k.extprod), "ms", n)
	rep.set("tfhe.rotate_ms", ms(k.rotate), "ms", n)
	rep.set("tfhe.batch_ms", ms(k.batch), "ms", n)
	// extprod_count × extprod_ms ÷ (workers × blind-rotation stage): the
	// share of the stage's worker time spent in external products.
	br := rep.metrics["core.blindrotate_ms"].Value
	explained := 0.0
	if br > 0 {
		explained = rep.metrics["rlwe.extprod_count"].Value * ms(k.extprod) / (float64(runtime.NumCPU()) * br)
	}
	rep.set("rlwe.extprod_explained", explained, "ratio", n)
}
