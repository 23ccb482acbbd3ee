package ring

import (
	"math/rand"
	"sync"
	"testing"
)

// fuzzPrimes is built once per process: the committed basis widths plus edge
// and boundary moduli, so the selector byte can reach every shift/width class
// the kernels specialize on.
var fuzzPrimesOnce sync.Once
var fuzzPrimesList []uint64

func fuzzPrimes() []uint64 {
	fuzzPrimesOnce.Do(func() {
		fuzzPrimesList = GenerateNTTPrimes(36, 13, 2)
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimesUp(37, 13, 2)...)
		fuzzPrimesList = append(fuzzPrimesList, 97, 257, 12289)
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(55, 12, 1)[0])
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(60, 12, 1)[0])
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(61, 12, 1)[0])
		fuzzPrimesList = append(fuzzPrimesList, GenerateNTTPrimes(50, 12, 1)[0], GenerateNTTPrimesUp(50, 12, 1)[0])
	})
	return fuzzPrimesList
}

// FuzzVectorVsScalarKernels fuzzes the bit-identity contract: every
// dispatched kernel and every vector NTT stage kernel, run on the vector
// path and the scalar path with identical fuzz-chosen inputs (prime,
// length — including sub-width lengths and width±1 —, aliasing, values
// planted at the lazy-interval edges), must produce byte-for-byte equal
// output. On builds or hosts without the vector
// path the target degenerates to scalar-vs-scalar and trivially holds, so
// corpus entries stay portable.
func FuzzVectorVsScalarKernels(f *testing.F) {
	// Seed corpus: each kernel class at the tail-machinery lengths (1,
	// width-1, width, width+1, two groups) with and without aliasing; the
	// committed files under testdata/fuzz mirror these. Classes 6-10 all
	// draw from the stage-kernel table.
	for kernel := uint8(0); kernel < 10; kernel++ {
		f.Add(uint64(1), uint8(0), kernel, uint8(1), false)
		f.Add(uint64(2), uint8(3), kernel, uint8(3), false)
		f.Add(uint64(3), uint8(5), kernel, uint8(4), true)
		f.Add(uint64(4), uint8(7), kernel, uint8(5), true)
		f.Add(uint64(5), uint8(8), kernel, uint8(8), false)
	}
	// The stage-kernel table: every degree 16..256, a 36-bit basis prime
	// and the IFMA boundary primes, with the high seed word spreading the
	// kernel choice.
	for length := uint8(0); length < 5; length++ {
		f.Add(uint64(length)<<32|6, uint8(0), uint8(10), length, false)
		f.Add(uint64(length+7)<<32|7, uint8(10), uint8(10), length, false)
		f.Add(uint64(length+13)<<32|8, uint8(11), uint8(10), length, false)
	}
	f.Fuzz(func(t *testing.T, seed uint64, primeSel, kernel, length uint8, alias bool) {
		prev := simdActive()
		defer SetSIMD(prev)
		hasVec := SetSIMD(true)

		primes := fuzzPrimes()
		q := primes[int(primeSel)%len(primes)]
		mod := NewModulus(q)
		rng := rand.New(rand.NewSource(int64(seed)))

		fill := func(p []uint64, bound uint64) {
			for i := range p {
				switch rng.Intn(4) {
				case 0:
					// Interval edge: bound-1 .. bound-4.
					p[i] = (bound - 1 - uint64(rng.Intn(4))) % bound
				case 1:
					p[i] = uint64(rng.Intn(3)) % bound
				default:
					p[i] = rng.Uint64() % bound
				}
			}
		}

		runBoth := func(run func(p, a, b, out Poly), n int, pBound, aBound uint64) {
			p := make(Poly, n)
			a := make(Poly, n)
			b := make(Poly, n)
			out := make(Poly, n)
			fill(p, pBound)
			fill(a, aBound)
			fill(b, q)
			fill(out, q)
			if alias {
				// out aliases a: kernels must read each lane group before
				// writing it, exactly like the scalar loops.
				a = out
			}
			pS, aS, outS := p.Copy(), a.Copy(), out.Copy()
			SetSIMD(false)
			run(pS, aS, b, outS)
			pV, aV, outV := p.Copy(), a.Copy(), out.Copy()
			if hasVec {
				SetSIMD(true)
			}
			run(pV, aV, b, outV)
			for i := 0; i < n; i++ {
				if pS[i] != pV[i] || aS[i] != aV[i] || outS[i] != outV[i] {
					t.Fatalf("q=%d kernel=%d n=%d alias=%v idx=%d: scalar (p=%d a=%d out=%d) vector (p=%d a=%d out=%d)",
						q, kernel, n, alias, i, pS[i], aS[i], outS[i], pV[i], aV[i], outV[i])
				}
			}
		}

		r := &Ring{Mod: mod}
		w := rng.Uint64() % q
		wShoup := mod.ShoupPrecomp(w)

		switch kernel % 11 {
		case 0:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffs(a, b, out) }, int(length), q, q)
		case 1:
			runBoth(func(p, a, b, out Poly) { r.MulCoeffsAndAdd(a, b, out) }, int(length), q, q)
		case 2:
			// MulScalar accepts lazy [0, 2q) operands (the INTT sweep).
			runBoth(func(p, a, b, out Poly) { r.MulScalar(a, w, out) }, int(length), q, 2*q)
		case 3:
			runBoth(func(p, a, b, out Poly) { mod.MACShoupVec(a, out, w, wShoup) }, int(length), q, q)
		case 4:
			runBoth(func(p, a, b, out Poly) { r.Add(a, b, out) }, int(length), q, q)
		case 5:
			runBoth(func(p, a, b, out Poly) { r.Sub(a, b, out) }, int(length), q, q)
		case 6, 7, 8, 9, 10:
			// Stage-kernel table: one fuzz-chosen kernel (generic, edge and
			// IFMA stages) at degree 16..256 against its scalar reference.
			n := 16 << (int(length) % 5)
			psi, psiShoup := randomTwiddles(rng, mod, n)
			ks := stageKernels(q, n, psi, psiShoup)
			k := ks[int(seed>>32)%len(ks)]
			runBoth(func(p, a, b, out Poly) {
				if activeLevel() >= k.level {
					k.vec(p)
				} else {
					k.ref(p)
				}
			}, n, k.bound, q)
		default:
			t.Fatalf("kernel byte %d maps to no kernel class", kernel)
		}
	})
}
