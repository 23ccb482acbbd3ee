package ring

import "math/bits"

// NTT transforms p in place from coefficient to evaluation (NTT)
// representation using the negacyclic Cooley-Tukey decimation-in-time pass
// with precomputed, bit-reversed twiddle tables and Shoup fixed-operand
// multiplication — the "read twiddles from memory" mode of the paper's NTT
// datapath (§IV-D).
//
// The butterflies use Harvey's lazy reduction: coefficients ride in [0, 4q)
// through the passes (q < 2^61, so 4q fits a word) and are canonically
// reduced only in a final sweep. The output is bit-identical to an eagerly
// reduced transform — the lazy interval only changes intermediate
// representatives, never the residue.
//
// When a vector level is active (see simd.go) and N ≥ 16, every stage runs
// in assembly: at the AVX2 level the t ≥ 4 stages on the generic stage
// kernel and the t=2 stage and the fused canonical t=1 stage on edge
// kernels that regroup the short blocks with in-register permutes; at the
// avx512ifma level (rings with q < 2^50) the same split with 8-lane
// kernels for t ≥ 8, t=4, t=2 and t=1. The vector butterflies perform the
// same operations in the same order on the same lazy intervals, so the
// transform is bit-identical at every level.
//
// The scalar and vector passes are separate driver functions on purpose:
// a CALL to an assembly kernel anywhere in a function — even on a branch
// never taken — forces the Go register allocator to keep the scalar loop
// state in spill slots, which measured ~1.5× on the pure-scalar transform.
// The scalar driver therefore contains no assembly calls at all, and the
// vector driver pays the (amortized, per-stage) call overhead knowingly.
func (r *Ring) NTT(p Poly) {
	r.nttWithTables(p, r.psiTable, r.psiTableShoup)
}

// NTTLazy is NTT with the final canonicalization left out: outputs are lazy
// representatives in [0, 2q) rather than [0, q). The residues are exactly
// NTT's — only the representative differs — and every consumer of
// evaluation-domain values that tolerates the lazy interval (INTT's
// butterflies assume only < 2q; the Shoup scalar sweep accepts any operand
// < 2^63) produces bit-identical final results. It saves one conditional
// subtraction per coefficient in the last stage for callers that feed the
// result straight into such a consumer.
//
// The scalar path runs through the stage helpers rather than the inline
// driver: threading a lazy flag through nttWithTables' signature measured a
// 40% slowdown on the whole canonical transform (the extra incoming
// argument evicts a hot loop value into a spill slot — see the BenchmarkAB
// pair), and NTTLazy has no latency-critical callers.
func (r *Ring) NTTLazy(p Poly) {
	psi, psiShoup := r.psiTable, r.psiTableShoup
	if lvl := r.nttLevel(); lvl != levelNone {
		r.nttVec(lvl, p, psi, psiShoup, 0)
		return
	}
	q := r.Mod.Q
	n := r.N
	p = p[:n]
	t := n
	for m := 1; m < n>>1; m <<= 1 {
		t >>= 1
		nttFwdStepScalar(p, psi, psiShoup, q, m, t)
	}
	nttFwdLastLazyScalar(p, psi, psiShoup, q)
}

// vecMinN is the smallest ring degree the vector transforms handle: the
// widest edge kernels regroup 16 coefficients per step. Smaller rings run
// the scalar driver at every level.
const vecMinN = 16

// ifmaMaxQ bounds the moduli the avx512ifma kernels accept: their Shoup
// quotient is assembled from 52-bit products, which needs every operand
// below 4q < 2^52. Rings with larger moduli run the AVX2 kernels instead.
const ifmaMaxQ = 1 << 50

// nttLevel is the dispatch level for this ring's transforms: the active
// level, stepped down to AVX2 for moduli the IFMA kernels do not cover and
// to scalar for rings below the vector kernels' minimum degree.
func (r *Ring) nttLevel() simdLevel {
	lvl := activeLevel()
	if lvl == levelIFMA && r.Mod.Q >= ifmaMaxQ {
		lvl = levelAVX2
	}
	if r.N < vecMinN {
		lvl = levelNone
	}
	return lvl
}

// csub returns x - b when x ≥ b and x otherwise, for x < 2b ≤ 2^63: the
// subtraction's borrow lands in the sign bit and masks b back in, so the
// canonical and lazy folds compile to straight-line code instead of a
// data-dependent branch that mispredicts on uniform residues.
func csub(x, b uint64) uint64 {
	x -= b
	return x + b&uint64(int64(x)>>63)
}

func (r *Ring) nttWithTables(p Poly, psi, psiShoup []uint64) {
	if lvl := r.nttLevel(); lvl != levelNone {
		r.nttVec(lvl, p, psi, psiShoup, r.Mod.Q)
		return
	}
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
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
			b = b[:len(a)] // bounds-check elimination for b[j]
			for j := range a {
				// u ∈ [0, 4q) → [0, 2q); v ← lazy Shoup ∈ [0, 2q).
				u := a[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := b[j]
				hi, _ := bits.Mul64(v, wS)
				v = v*w - hi*q
				a[j] = u + v        // < 4q
				b[j] = u + twoQ - v // < 4q
			}
		}
	}
	// Last stage (t=1, m=n/2), open-coded: pairs are adjacent, so direct
	// indexing replaces n/2 one-element subslice loops, and the canonical
	// sweep is fused into the butterfly instead of running as an extra pass
	// over the polynomial. Same loop as nttFwdLastScalar (keep in sync).
	if n == 1 {
		p[0] = csub(csub(p[0], twoQ), q)
		return
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

// nttVec is the forward pass with every stage on the vector kernels of
// level lvl (AVX2 or avx512ifma, see nttLevel); fin is the last stage's
// final fold bound — q for the canonical transform, 0 (a no-op fold) for
// NTTLazy. Bit-identical to the scalar driver.
func (r *Ring) nttVec(lvl simdLevel, p Poly, psi, psiShoup []uint64, fin uint64) {
	q := r.Mod.Q
	n := r.N
	p = p[:n]
	t := n
	if lvl == levelIFMA {
		for m := 1; m < n>>3; m <<= 1 {
			t >>= 1
			nttFwdStepIFMA(p, psi, psiShoup, q, m, t)
		}
		nttFwdT4IFMA(p, psi, psiShoup, q)
		nttFwdT2IFMA(p, psi, psiShoup, q)
		nttFwdLastIFMA(p, psi, psiShoup, q, fin)
		return
	}
	for m := 1; m < n>>2; m <<= 1 {
		t >>= 1
		nttFwdStepAVX2(p, psi, psiShoup, q, m, t)
	}
	nttFwdT2AVX2(p, psi, psiShoup, q)
	nttFwdLastAVX2(p, psi, psiShoup, q, fin)
}

// nttFwdStepScalar runs one forward Cooley-Tukey stage (m blocks of half
// length t) with Shoup-twiddle butterflies — NTTLazy's scalar stage, and
// the lane-for-lane reference the vector property tests and fuzz target
// compare every vector stage kernel against. The pure-scalar transform
// inlines this same loop (see nttWithTables for why); keep the two in sync.
func nttFwdStepScalar(p Poly, psi, psiShoup []uint64, q uint64, m, t int) {
	twoQ := 2 * q
	for i := 0; i < m; i++ {
		w := psi[m+i]
		wS := psiShoup[m+i]
		j1 := 2 * i * t
		a := p[j1 : j1+t]
		b := p[j1+t : j1+2*t]
		b = b[:len(a)] // bounds-check elimination for b[j]
		for j := range a {
			// u ∈ [0, 4q) → [0, 2q); v ← lazy Shoup ∈ [0, 2q).
			u := a[j]
			if u >= twoQ {
				u -= twoQ
			}
			v := b[j]
			hi, _ := bits.Mul64(v, wS)
			v = v*w - hi*q
			a[j] = u + v        // < 4q
			b[j] = u + twoQ - v // < 4q
		}
	}
}

// nttFwdLastScalar is the fused canonicalizing last stage (t=1, m=n/2):
// the reference for the vector last-stage kernels with fin = q. The scalar
// driver inlines the same loop.
func nttFwdLastScalar(p Poly, psi, psiShoup []uint64, q uint64) {
	twoQ := 2 * q
	n := len(p)
	if n == 1 {
		p[0] = csub(csub(p[0], twoQ), q)
		return
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

// nttFwdLastLazyScalar is nttFwdLastScalar without the canonical fold —
// outputs in [0, 2q) — NTTLazy's scalar last stage and the reference for
// the vector last-stage kernels with fin = 0.
func nttFwdLastLazyScalar(p Poly, psi, psiShoup []uint64, q uint64) {
	twoQ := 2 * q
	n := len(p)
	if n == 1 {
		p[0] = csub(p[0], twoQ)
		return
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
		pp[0] = csub(u+v, twoQ)
		pp[1] = csub(u+twoQ-v, twoQ)
	}
}

// INTT transforms p in place from evaluation back to coefficient
// representation (Gentleman-Sande decimation-in-frequency pass with the same
// lazy-reduction discipline as NTT, coefficients in [0, 2q) between passes),
// including the final multiplication by N^{-1} which also performs the
// canonical reduction. Driver split mirrors NTT: the scalar pass contains no
// assembly calls, the vector pass runs every stage on the kernels of the
// ring's dispatch level; the N^{-1} sweep rides the MulScalar Shoup kernel
// in both.
func (r *Ring) INTT(p Poly) {
	if lvl := r.nttLevel(); lvl != levelNone {
		r.inttVec(lvl, p)
		return
	}
	q := r.Mod.Q
	twoQ := 2 * q
	n := r.N
	psiInv := r.psiInvTable
	psiInvShoup := r.psiInvTableShoup
	p = p[:n]
	t := 1
	if n >= 2 {
		// First stage (t=1, h=n/2), open-coded with direct indexing for the
		// same reason as the forward transform's last stage: the pairs are
		// adjacent and a one-element subslice loop per butterfly costs more
		// than the butterfly. Same loop as nttInvFirstScalar (keep in sync).
		h := n >> 1
		w1, w1S := psiInv[h:n], psiInvShoup[h:n]
		w1S = w1S[:len(w1)]
		for i, w := range w1 {
			wS := w1S[i]
			pp := p[2*i : 2*i+2 : 2*i+2]
			u, v := pp[0], pp[1]
			pp[0] = csub(u+v, twoQ) // < 4q → [0, 2q)
			d := u + twoQ - v       // < 4q
			hi, _ := bits.Mul64(d, wS)
			pp[1] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
		}
		t = 2
	}
	for m := n >> 1; m > 1; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := psiInv[h+i]
			wS := psiInvShoup[h+i]
			a := p[j1 : j1+t]
			b := p[j1+t : j1+2*t]
			b = b[:len(a)]
			for j := range a {
				u := a[j]
				v := b[j]
				c := u + v // < 4q
				if c >= twoQ {
					c -= twoQ
				}
				a[j] = c
				d := u + twoQ - v // < 4q
				hi, _ := bits.Mul64(d, wS)
				b[j] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	r.nInvSweep(p)
}

// inttVec is the inverse pass with every stage on the vector kernels of
// level lvl (see INTT).
func (r *Ring) inttVec(lvl simdLevel, p Poly) {
	q := r.Mod.Q
	n := r.N
	psiInv := r.psiInvTable
	psiInvShoup := r.psiInvTableShoup
	p = p[:n]
	if lvl == levelIFMA {
		nttInvFirstIFMA(p, psiInv, psiInvShoup, q)
		nttInvT2IFMA(p, psiInv, psiInvShoup, q)
		nttInvT4IFMA(p, psiInv, psiInvShoup, q)
		t := 8
		for m := n >> 3; m > 1; m >>= 1 {
			nttInvStepIFMA(p, psiInv, psiInvShoup, q, m>>1, t)
			t <<= 1
		}
	} else {
		nttInvFirstAVX2(p, psiInv, psiInvShoup, q)
		nttInvT2AVX2(p, psiInv, psiInvShoup, q)
		t := 4
		for m := n >> 2; m > 1; m >>= 1 {
			nttInvStepAVX2(p, psiInv, psiInvShoup, q, m>>1, t)
			t <<= 1
		}
	}
	r.nInvSweep(p)
}

// nttInvFirstScalar is the open-coded first inverse stage (t=1, h=n/2) —
// the reference for the vector first-stage kernels; INTT inlines the same
// loop.
func nttInvFirstScalar(p Poly, psiInv, psiInvShoup []uint64, q uint64) {
	twoQ := 2 * q
	n := len(p)
	h := n >> 1
	psiInv, psiInvShoup = psiInv[h:n], psiInvShoup[h:n]
	psiInvShoup = psiInvShoup[:len(psiInv)]
	for i, w := range psiInv {
		wS := psiInvShoup[i]
		pp := p[2*i : 2*i+2 : 2*i+2]
		u, v := pp[0], pp[1]
		pp[0] = csub(u+v, twoQ) // < 4q → [0, 2q)
		d := u + twoQ - v       // < 4q
		hi, _ := bits.Mul64(d, wS)
		pp[1] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
	}
}

// nttInvStepScalar runs one inverse Gentleman-Sande stage (h blocks of half
// length t) — the reference semantics for every vector inverse stage
// kernel with t ≥ 2; INTT inlines the same loop (keep in sync).
func nttInvStepScalar(p Poly, psiInv, psiInvShoup []uint64, q uint64, h, t int) {
	twoQ := 2 * q
	j1 := 0
	for i := 0; i < h; i++ {
		w := psiInv[h+i]
		wS := psiInvShoup[h+i]
		a := p[j1 : j1+t]
		b := p[j1+t : j1+2*t]
		b = b[:len(a)]
		for j := range a {
			u := a[j]
			v := b[j]
			c := u + v // < 4q
			if c >= twoQ {
				c -= twoQ
			}
			a[j] = c
			d := u + twoQ - v // < 4q
			hi, _ := bits.Mul64(d, wS)
			b[j] = d*w - hi*q // lazy Shoup ∈ [0, 2q)
		}
		j1 += 2 * t
	}
}

// nInvSweep multiplies every coefficient by N^{-1} (Shoup fixed-operand)
// with canonical output — the final pass of both inverse transforms. It is
// the same kernel as MulScalar's inner loop (correct for any input < 2^63,
// which covers the lazy [0, 2q) coefficients arriving here), so it shares
// the vector dispatch.
func (r *Ring) nInvSweep(p Poly) {
	mulScalarShoupInto(p, p, r.Mod.Q, r.nInv, r.nInvShoup)
}

// NTTOnTheFly performs the forward NTT while generating the twiddle factors
// arithmetically instead of reading precomputed tables — the alternative
// datapath mode of §IV-D ("on-the-fly twiddle factor generation ... when the
// on-chip memory is not sufficient"). Functionally identical to NTT; the
// twiddles are derived per call into scratch storage, trading multiplications
// for table reads. Exposed so the design choice can be benchmarked.
func (r *Ring) NTTOnTheFly(p Poly) {
	r.NTTOnTheFlyWith(p, NewTwiddleScratch(r.N))
}

// TwiddleScratch holds the per-call twiddle buffers of the on-the-fly NTT
// mode, so a worker that keeps one around pays no allocation per transform —
// the software analog of the datapath reusing one on-chip twiddle buffer.
type TwiddleScratch struct {
	psi, psiShoup []uint64
}

// NewTwiddleScratch allocates twiddle buffers for ring degree n.
func NewTwiddleScratch(n int) *TwiddleScratch {
	return &TwiddleScratch{psi: make([]uint64, n), psiShoup: make([]uint64, n)}
}

// NTTOnTheFlyWith is NTTOnTheFly with caller-owned twiddle scratch; it is
// allocation-free when sc is large enough for the ring degree.
func (r *Ring) NTTOnTheFlyWith(p Poly, sc *TwiddleScratch) {
	n := r.N
	if len(sc.psi) < n {
		sc.psi = make([]uint64, n)
		sc.psiShoup = make([]uint64, n)
	}
	psi := sc.psi[:n]
	psiShoup := sc.psiShoup[:n]
	fillTwiddles(r.Mod, r.psi, r.LogN, psi)
	for i := range psi {
		psiShoup[i] = r.Mod.ShoupPrecomp(psi[i])
	}
	r.nttWithTables(p, psi, psiShoup)
}
