package ring

import (
	"math/bits"
	"math/rand"
	"testing"
)

// This file pins down a register-allocation hazard in the scalar NTT driver
// with an A/B benchmark pair. Two findings, both measured at ~40-50% on the
// whole transform (N=2^13, single 61-bit modulus):
//
//  1. A CALL to an assembly kernel anywhere in a function — even on a branch
//     never taken — forces the hot scalar loop state into spill slots. The
//     scalar driver must therefore contain no assembly calls; SIMD dispatch
//     happens before entering it.
//
//  2. One extra incoming argument (a `lazy bool` threaded to the last stage)
//     evicts a hot loop value into a spill slot for the entire function,
//     even though the flag is only read after the main stage loop. The
//     scalar driver therefore takes no lazy flag; NTTLazy is a separate
//     driver built from the stage helpers.
//
// BenchmarkABOldInlineNTT is the monolithic pre-split transform kept as
// the performance reference (its last stage carries the same branchless
// folds as production, so the pair isolates the driver structure);
// BenchmarkABNewScalarNTT is the production scalar path (SIMD forced off).
// The two should stay within run-to-run noise of each other; a gap
// reopening here means one of the hazards above crept back into
// nttWithTables.
//
// The second pair guards the canonical last stage itself (t=1, the scalar
// edge stage every vector-less transform ends on).
// BenchmarkABFlaggedLastStage runs the former helper verbatim: a `lazy
// bool` argument tested per coefficient, data-dependent branches for the
// folds, four bounds checks per butterfly. BenchmarkABCanonicalLastStage
// runs production's nttFwdLastScalar: flag-free, branchless, bounds checks
// hoisted by the psi[m:n] / p[2i:2i+2:2i+2] slicing. Production must stay
// ahead (EXPERIMENTS.md has the measured gap); the gap closing means a
// flag, a branch or spilled loop state came back.

// nttOldInline is the monolithic forward transform: every stage open-coded
// in one function, no helpers, no flags, no assembly. Reference only.
func nttOldInline(r *Ring, p Poly) {
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
	psi := r.psiTable
	psiShoup := r.psiTableShoup
	p = p[:n]
	t := n
	for m := 1; m < n>>1; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			w := psi[m+i]
			wS := psiShoup[m+i]
			j1 := 2 * i * t
			a := p[j1 : j1+t]
			b := p[j1+t : j1+2*t]
			b = b[:len(a)]
			for j := range a {
				u := a[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := b[j]
				hi, _ := bits.Mul64(v, wS)
				v = v*w - hi*q
				a[j] = u + v
				b[j] = u + twoQ - v
			}
		}
	}
	m := n >> 1
	psi, psiShoup = psi[m:n], psiShoup[m:n]
	psiShoup = psiShoup[:len(psi)]
	for i, w := range psi {
		wS := psiShoup[i]
		pp := p[2*i : 2*i+2 : 2*i+2]
		u := csub(pp[0], twoQ)
		v := pp[1]
		hi, _ := bits.Mul64(v, wS)
		v = v*w - hi*q
		pp[0] = csub(csub(u+v, twoQ), q)
		pp[1] = csub(csub(u+twoQ-v, twoQ), q)
	}
}

// nttLastFlagged is the former last-stage helper, kept verbatim as the
// slow reference of the last-stage pair: lazy flag, branches, per-element
// bounds checks. noinline keeps the flag a run-time argument, as it was in
// the vector driver that called it.
//
//go:noinline
func nttLastFlagged(p Poly, psi, psiShoup []uint64, q uint64, lazy bool) {
	twoQ := 2 * q
	n := len(p)
	m := n >> 1
	for i := 0; i < m; i++ {
		w := psi[m+i]
		wS := psiShoup[m+i]
		u := p[2*i]
		if u >= twoQ {
			u -= twoQ
		}
		v := p[2*i+1]
		hi, _ := bits.Mul64(v, wS)
		v = v*w - hi*q
		x := u + v // < 4q
		if x >= twoQ {
			x -= twoQ
		}
		if !lazy && x >= q {
			x -= q
		}
		y := u + twoQ - v // < 4q
		if y >= twoQ {
			y -= twoQ
		}
		if !lazy && y >= q {
			y -= q
		}
		p[2*i] = x
		p[2*i+1] = y
	}
}

func BenchmarkABOldInlineNTT(b *testing.B) {
	r := NewRing(13, 68719230977)
	p := make(Poly, r.N)
	for i := range p {
		p[i] = uint64(i) * 2654435761 % r.Mod.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nttOldInline(r, p)
	}
}

func BenchmarkABNewScalarNTT(b *testing.B) {
	r := NewRing(13, 68719230977)
	prev := SetSIMD(false)
	defer SetSIMD(prev)
	p := make(Poly, r.N)
	for i := range p {
		p[i] = uint64(i) * 2654435761 % r.Mod.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.NTT(p)
	}
}

// lastStageInputs are uniform lazy [0, 4q) polynomials — what the stages
// before the last one hand it — for the last-stage pair. Each iteration
// restores the next one, so both arms see the same data and the branch
// predictor cannot learn a single replayed input.
func lastStageInputs(r *Ring) []Poly {
	rng := rand.New(rand.NewSource(73))
	ins := make([]Poly, 16)
	for k := range ins {
		ins[k] = make(Poly, r.N)
		for i := range ins[k] {
			ins[k][i] = rng.Uint64() % (4 * r.Mod.Q)
		}
	}
	return ins
}

func BenchmarkABFlaggedLastStage(b *testing.B) {
	r := NewRing(13, 68719230977)
	ins := lastStageInputs(r)
	p := make(Poly, r.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, ins[i%len(ins)])
		nttLastFlagged(p, r.psiTable, r.psiTableShoup, r.Mod.Q, false)
	}
}

func BenchmarkABCanonicalLastStage(b *testing.B) {
	r := NewRing(13, 68719230977)
	ins := lastStageInputs(r)
	p := make(Poly, r.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, ins[i%len(ins)])
		nttFwdLastScalar(p, r.psiTable, r.psiTableShoup, r.Mod.Q)
	}
}
