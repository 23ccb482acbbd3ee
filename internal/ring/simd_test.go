package ring

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// simdPrimes is the kernel-equivalence basis plus three boundary moduli: the
// AVX2 kernels' signed-compare argument (every compared value < 2^63
// because q < 2^61) is tightest at 61 bits, and the IFMA kernels' 52-bit
// operand bound (4q < 2^52) is tightest just below 2^50 — the prime just
// above it must fall back to AVX2 — so both edges are in every bit-identity
// sweep.
func simdPrimes(t testing.TB) []uint64 {
	t.Helper()
	return append(paramsPrimes(t), GenerateNTTPrimes(61, 12, 1)[0],
		GenerateNTTPrimes(50, 12, 1)[0], GenerateNTTPrimesUp(50, 12, 1)[0])
}

// forEachLevel runs f as a subtest at every dispatch level the build and
// host support (scalar first), restoring the prior level afterwards.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	prev := activeLevel()
	t.Cleanup(func() { setSIMDLevel(prev) })
	for lvl := levelNone; lvl <= levelIFMA; lvl++ {
		if !setSIMDLevel(lvl) {
			continue
		}
		t.Run(levelNames[lvl], f)
	}
}

// edgeFill writes operands parked at the lazy-interval edges only — each
// slot one of 0, 1, q-1, q, bound-2, bound-1 — so every lane of a vector
// step sees boundary values at once.
func edgeFill(rng *rand.Rand, p []uint64, q, bound uint64) {
	edges := []uint64{0, 1, q - 1, q, bound - 2, bound - 1}
	for i := range p {
		p[i] = edges[rng.Intn(len(edges))] % bound
	}
}

// withVector enables the vector kernels for the duration of the test,
// restoring the prior dispatch state afterwards, and skips when the build or
// host has no vector path (purego tag, non-amd64, AVX2 absent).
func withVector(t *testing.T) {
	t.Helper()
	prev := simdActive()
	if !SetSIMD(true) {
		SetSIMD(prev)
		t.Skip("vector kernels unavailable on this build/host")
	}
	t.Cleanup(func() { SetSIMD(prev) })
}

// lazyFill writes values in [0, bound) with the interval boundaries planted
// in the first slots (bound-1, bound-2, 0, 1, ...) so every run exercises the
// exact edges of the lazy-reduction intervals, then random values.
func lazyFill(rng *rand.Rand, p []uint64, bound uint64) {
	edges := []uint64{bound - 1, bound - 2, 0, 1, bound / 2, bound/2 + 1}
	for i := range p {
		if i < len(edges) {
			p[i] = edges[i] % bound
		} else {
			p[i] = rng.Uint64() % bound
		}
	}
}

// sweepLens covers the tail machinery: below one vector width, exactly one
// width, width±1, and larger mixed cases.
var sweepLens = []int{1, 2, 3, 4, 5, 7, 8, 12, 33, 64, 100}

// TestVectorSweepKernelsMatchScalar is the bit-identity property test for the
// coefficient-sweep kernels: every dispatched entry point is run once with
// the vector path and once with the scalar path on identical inputs —
// including aliased out == a — and the outputs must agree byte for byte.
func TestVectorSweepKernelsMatchScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(101))
	for _, q := range simdPrimes(t) {
		r := &Ring{Mod: NewModulus(q)}
		mod := r.Mod
		w := rng.Uint64() % q
		wShoup := mod.ShoupPrecomp(w)
		cases := []struct {
			name string
			// bound on a/b inputs; out starts canonical where the kernel reads it.
			aBound uint64
			run    func(a, b, out Poly)
		}{
			{"Add", q, func(a, b, out Poly) { r.Add(a, b, out) }},
			{"Sub", q, func(a, b, out Poly) { r.Sub(a, b, out) }},
			{"MulCoeffs", q, func(a, b, out Poly) { r.MulCoeffs(a, b, out) }},
			{"MulCoeffsAndAdd", q, func(a, b, out Poly) { r.MulCoeffsAndAdd(a, b, out) }},
			// MulScalar's kernel is documented for any operand < 2^63; the
			// INTT feeds it lazy values, so test the [0, 2q) domain.
			{"MulScalar", 2 * q, func(a, b, out Poly) { r.MulScalar(a, w, out) }},
			{"MACShoupVec", q, func(a, b, out Poly) { mod.MACShoupVec(a, out, w, wShoup) }},
		}
		for _, tc := range cases {
			for _, n := range sweepLens {
				a := make(Poly, n)
				b := make(Poly, n)
				out0 := make(Poly, n)
				lazyFill(rng, a, tc.aBound)
				lazyFill(rng, b, q)
				lazyFill(rng, out0, q)

				want := out0.Copy()
				SetSIMD(false)
				tc.run(a.Copy(), b, want)
				SetSIMD(true)
				got := out0.Copy()
				tc.run(a.Copy(), b, got)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("q=%d %s n=%d: vector[%d]=%d scalar=%d", q, tc.name, n, i, got[i], want[i])
					}
				}

				// Aliased: out == a (in place), both paths.
				SetSIMD(false)
				aw := a.Copy()
				tc.run(aw, b, aw)
				SetSIMD(true)
				ag := a.Copy()
				tc.run(ag, b, ag)
				for i := range aw {
					if aw[i] != ag[i] {
						t.Fatalf("q=%d %s n=%d aliased: vector[%d]=%d scalar=%d", q, tc.name, n, i, ag[i], aw[i])
					}
				}
			}
		}
	}
}

// stageKernel is one vector NTT/INTT stage kernel paired with its scalar
// reference: vec and ref transform p in place, from inputs drawn below
// bound (4q into a forward stage, 2q into an inverse one).
type stageKernel struct {
	name     string
	level    simdLevel
	bound    uint64
	vec, ref func(p Poly)
}

// stageKernels lists every Shoup-twiddle stage kernel applicable to a
// degree-n polynomial (n ≥ 16) over q with the given twiddle tables: the
// generic AVX2 and IFMA stages at each block half-length t they take, and
// the t=4, t=2 and t=1 edge kernels of both levels (canonical and lazy
// forward last stage). IFMA kernels are listed only for q < 2^50.
func stageKernels(q uint64, n int, psi, psiShoup []uint64) []stageKernel {
	var ks []stageKernel
	fwd, inv := 4*q, 2*q
	add := func(name string, lvl simdLevel, bound uint64, vec, ref func(Poly)) {
		if lvl == levelIFMA && q >= ifmaMaxQ {
			return
		}
		ks = append(ks, stageKernel{name, lvl, bound, vec, ref})
	}
	fwdRef := func(m, t int) func(Poly) {
		return func(p Poly) { nttFwdStepScalar(p, psi, psiShoup, q, m, t) }
	}
	invRef := func(h, t int) func(Poly) {
		return func(p Poly) { nttInvStepScalar(p, psi, psiShoup, q, h, t) }
	}
	// A stage of block half-length t has m = h = n/(2t) blocks both ways.
	for t := n / 2; t >= 4; t >>= 1 {
		m := n / (2 * t)
		add(fmt.Sprintf("fwdStepAVX2/t=%d", t), levelAVX2, fwd,
			func(p Poly) { nttFwdStepAVX2(p, psi, psiShoup, q, m, t) }, fwdRef(m, t))
		add(fmt.Sprintf("invStepAVX2/t=%d", t), levelAVX2, inv,
			func(p Poly) { nttInvStepAVX2(p, psi, psiShoup, q, m, t) }, invRef(m, t))
		if t >= 8 {
			add(fmt.Sprintf("fwdStepIFMA/t=%d", t), levelIFMA, fwd,
				func(p Poly) { nttFwdStepIFMA(p, psi, psiShoup, q, m, t) }, fwdRef(m, t))
			add(fmt.Sprintf("invStepIFMA/t=%d", t), levelIFMA, inv,
				func(p Poly) { nttInvStepIFMA(p, psi, psiShoup, q, m, t) }, invRef(m, t))
		}
	}
	fwdLast := func(p Poly) { nttFwdLastScalar(p, psi, psiShoup, q) }
	fwdLastLazy := func(p Poly) { nttFwdLastLazyScalar(p, psi, psiShoup, q) }
	invFirst := func(p Poly) { nttInvFirstScalar(p, psi, psiShoup, q) }
	add("fwdT2AVX2", levelAVX2, fwd, func(p Poly) { nttFwdT2AVX2(p, psi, psiShoup, q) }, fwdRef(n/4, 2))
	add("fwdLastAVX2", levelAVX2, fwd, func(p Poly) { nttFwdLastAVX2(p, psi, psiShoup, q, q) }, fwdLast)
	add("fwdLastLazyAVX2", levelAVX2, fwd, func(p Poly) { nttFwdLastAVX2(p, psi, psiShoup, q, 0) }, fwdLastLazy)
	add("invFirstAVX2", levelAVX2, inv, func(p Poly) { nttInvFirstAVX2(p, psi, psiShoup, q) }, invFirst)
	add("invT2AVX2", levelAVX2, inv, func(p Poly) { nttInvT2AVX2(p, psi, psiShoup, q) }, invRef(n/4, 2))
	add("fwdT4IFMA", levelIFMA, fwd, func(p Poly) { nttFwdT4IFMA(p, psi, psiShoup, q) }, fwdRef(n/8, 4))
	add("fwdT2IFMA", levelIFMA, fwd, func(p Poly) { nttFwdT2IFMA(p, psi, psiShoup, q) }, fwdRef(n/4, 2))
	add("fwdLastIFMA", levelIFMA, fwd, func(p Poly) { nttFwdLastIFMA(p, psi, psiShoup, q, q) }, fwdLast)
	add("fwdLastLazyIFMA", levelIFMA, fwd, func(p Poly) { nttFwdLastIFMA(p, psi, psiShoup, q, 0) }, fwdLastLazy)
	add("invFirstIFMA", levelIFMA, inv, func(p Poly) { nttInvFirstIFMA(p, psi, psiShoup, q) }, invFirst)
	add("invT2IFMA", levelIFMA, inv, func(p Poly) { nttInvT2IFMA(p, psi, psiShoup, q) }, invRef(n/4, 2))
	add("invT4IFMA", levelIFMA, inv, func(p Poly) { nttInvT4IFMA(p, psi, psiShoup, q) }, invRef(n/8, 4))
	return ks
}

// randomTwiddles returns random canonical twiddle-like tables: the stage
// kernels do not require genuine roots of unity, only w < q with consistent
// Shoup companions.
func randomTwiddles(rng *rand.Rand, mod Modulus, n int) (psi, psiShoup []uint64) {
	psi = make([]uint64, n)
	psiShoup = make([]uint64, n)
	for i := range psi {
		psi[i] = rng.Uint64() % mod.Q
		psiShoup[i] = mod.ShoupPrecomp(psi[i])
	}
	return psi, psiShoup
}

// TestVectorNTTStageKernelsMatchScalar compares every vector butterfly
// stage kernel the host can run directly against its scalar reference, on
// every committed prime and boundary modulus, with inputs planted at the
// extreme edges of the Harvey lazy intervals ([0, 4q) into a forward stage,
// [0, 2q) into an inverse stage) — the adversarial domain where a reduction
// that diverges from the scalar order would show. The polynomial sits
// between guard words in a larger buffer, so a kernel that strays past
// either end of its slice fails too.
func TestVectorNTTStageKernelsMatchScalar(t *testing.T) {
	withVector(t)
	rng := rand.New(rand.NewSource(202))
	const guard = 8
	const sentinel = 0xDEADBEEFCAFEF00D
	for _, q := range simdPrimes(t) {
		mod := NewModulus(q)
		for _, n := range []int{16, 32, 256} {
			psi, psiShoup := randomTwiddles(rng, mod, n)
			for _, k := range stageKernels(q, n, psi, psiShoup) {
				if k.level > hostLevel {
					continue
				}
				for _, fill := range []func(p []uint64){
					func(p []uint64) { lazyFill(rng, p, k.bound) },
					func(p []uint64) { edgeFill(rng, p, q, k.bound) },
				} {
					p := make(Poly, n)
					fill(p)
					want := p.Copy()
					k.ref(want)
					buf := make([]uint64, n+2*guard)
					for i := range buf {
						buf[i] = sentinel
					}
					got := Poly(buf[guard : guard+n : guard+n])
					copy(got, p)
					k.vec(got)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("q=%d n=%d %s: vector[%d]=%d scalar=%d", q, n, k.name, i, got[i], want[i])
						}
					}
					for i := 0; i < guard; i++ {
						if buf[i] != sentinel || buf[guard+n+i] != sentinel {
							t.Fatalf("q=%d n=%d %s: wrote outside the polynomial", q, n, k.name)
						}
					}
				}
			}
		}
	}
}

// TestVectorTransformsMatchScalar runs every public transform at each
// vector level the host supports and on the scalar path, and requires
// byte-identical results — the whole-transform closure of the per-stage
// identity above, across ring degrees (including degrees small enough that
// every level falls back to scalar), the paper basis, and boundary-modulus
// rings on both sides of the IFMA range and at the 61-bit top.
func TestVectorTransformsMatchScalar(t *testing.T) {
	withVector(t)
	rings := testRings(t)
	for _, q := range GenerateNTTPrimes(36, 13, 1) {
		rings = append(rings, NewRing(13, q))
	}
	rings = append(rings, NewRing(12, GenerateNTTPrimes(61, 12, 1)[0]),
		NewRing(12, GenerateNTTPrimes(50, 12, 1)[0]), NewRing(12, GenerateNTTPrimesUp(50, 12, 1)[0]))
	for _, r := range rings {
		s := NewSampler(303)
		p := r.NewPoly()
		s.UniformPoly(r, p)
		sc := NewTwiddleScratch(r.N)
		cases := []struct {
			name string
			f    func(Poly)
		}{
			{"NTT", r.NTT},
			{"NTTLazy", r.NTTLazy},
			{"INTT", r.INTT},
			{"NTTOnTheFly", func(q Poly) { r.NTTOnTheFlyWith(q, sc) }},
		}
		for _, tc := range cases {
			setSIMDLevel(levelNone)
			want := p.Copy()
			tc.f(want)
			for lvl := levelAVX2; lvl <= hostLevel; lvl++ {
				setSIMDLevel(lvl)
				got := p.Copy()
				tc.f(got)
				if !r.Equal(want, got) {
					t.Errorf("logN=%d q=%d %s at %s: vector and scalar transforms differ", r.LogN, r.Mod.Q, tc.name, levelNames[lvl])
				}
			}
		}
	}
}

// TestNTTLazySemantics pins the NTTLazy contract at every dispatch level:
// outputs are in [0, 2q), their residues are exactly NTT's, and the inverse
// transform restores the original polynomial bit for bit.
func TestNTTLazySemantics(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		for _, r := range testRings(t) {
			q := r.Mod.Q
			s := NewSampler(404)
			p := r.NewPoly()
			s.UniformPoly(r, p)

			canon := p.Copy()
			r.NTT(canon)
			lazy := p.Copy()
			r.NTTLazy(lazy)
			for i := range lazy {
				if lazy[i] >= 2*q {
					t.Fatalf("logN=%d q=%d: NTTLazy[%d]=%d outside [0, 2q)", r.LogN, q, i, lazy[i])
				}
				if lazy[i]%q != canon[i] {
					t.Fatalf("logN=%d q=%d: NTTLazy[%d]=%d has residue %d, NTT gives %d", r.LogN, q, i, lazy[i], lazy[i]%q, canon[i])
				}
			}
			r.INTT(lazy)
			if !r.Equal(lazy, p) {
				t.Errorf("logN=%d q=%d: INTT(NTTLazy(p)) != p", r.LogN, q)
			}
		}
	})
}

// TestSetSIMDToggleConcurrent toggles the dispatch flag while workers hammer
// NTT/INTT round trips. Run under -race this proves the runtime toggle is
// data-race-free; the round trips prove both paths stay correct mid-flip
// (they compute identical values, so a flip between passes is harmless).
func TestSetSIMDToggleConcurrent(t *testing.T) {
	prev := simdActive()
	defer SetSIMD(prev)
	r := NewRing(8, GenerateNTTPrimes(30, 8, 1)[0])
	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		on := true
		for {
			select {
			case <-stop:
				return
			default:
				SetSIMD(on)
				on = !on
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := NewSampler(uint64(seed))
			p := r.NewPoly()
			for it := 0; it < 50; it++ {
				s.UniformPoly(r, p)
				orig := p.Copy()
				r.NTT(p)
				r.INTT(p)
				for i := range p {
					if p[i] != orig[i] {
						t.Errorf("round trip diverged under concurrent toggling at %d", i)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	flips.Wait()
}

// TestSIMDLevelConsistent pins the obs-facing level string to the dispatch
// state on every build.
func TestSIMDLevelConsistent(t *testing.T) {
	if simdActive() && SIMDLevel() != levelNames[hostLevel] {
		t.Fatalf("SIMD active but level = %q, host supports %q", SIMDLevel(), levelNames[hostLevel])
	}
	if !simdActive() && SIMDLevel() != "none" {
		t.Fatalf("SIMD inactive but level = %q", SIMDLevel())
	}
}

// BenchmarkTransformLevels times the forward and inverse transform at the
// paper ring (N=2^13, a 36-bit basis prime) at every dispatch level the
// host supports: the per-kernel figures behind ring.ntt_us / ring.intt_us.
func BenchmarkTransformLevels(b *testing.B) {
	r := NewRing(13, GenerateNTTPrimes(36, 13, 1)[0])
	p := r.NewPoly()
	NewSampler(71).UniformPoly(r, p)
	prev := activeLevel()
	defer setSIMDLevel(prev)
	for lvl := levelNone; lvl <= levelIFMA; lvl++ {
		if !setSIMDLevel(lvl) {
			continue
		}
		b.Run(levelNames[lvl]+"/NTT", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p)
			}
		})
		b.Run(levelNames[lvl]+"/INTT", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.INTT(p)
			}
		})
	}
}
