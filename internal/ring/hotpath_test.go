package ring

import "testing"

// TestShoupPrecompBoundary is the regression test for the bits.Div64 panic:
// ShoupPrecomp(w) with w ≥ q used to crash (quotient overflow) instead of
// reducing the operand. The precomputed constant must agree with the one for
// the reduced operand, and the fast multiply must stay correct at the
// boundary w = q−1.
func TestShoupPrecompBoundary(t *testing.T) {
	m := NewModulus(GenerateNTTPrimes(40, 4, 1)[0])
	q := m.Q
	for _, w := range []uint64{q - 1, q, q + 1, 2*q + 5, ^uint64(0)} {
		got := m.ShoupPrecomp(w) // must not panic
		want := m.ShoupPrecomp(w % q)
		if got != want {
			t.Fatalf("ShoupPrecomp(%d) = %d, want ShoupPrecomp(%d mod q) = %d", w, got, w, want)
		}
	}
	// Fast path correctness at the largest legal operand.
	w := q - 1
	ws := m.ShoupPrecomp(w)
	for _, a := range []uint64{0, 1, q / 2, q - 1} {
		if got, want := m.MulModShoup(a, w, ws), m.MulMod(a, w); got != want {
			t.Fatalf("MulModShoup(%d, q-1) = %d, want %d", a, got, want)
		}
	}
}

// TestNTTZeroAllocs locks in that the table-driven NTT/INTT pair and the
// scratch-fed on-the-fly variant never touch the heap, at every dispatch
// level the host supports.
func TestNTTZeroAllocs(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		r := NewRing(8, GenerateNTTPrimes(40, 8, 1)[0])
		p := r.NewPoly()
		for i := range p {
			p[i] = uint64(i * 31)
		}
		if avg := testing.AllocsPerRun(10, func() {
			r.NTT(p)
			r.NTTLazy(p)
			r.INTT(p)
		}); avg != 0 {
			t.Fatalf("NTT+NTTLazy+INTT allocate %.1f objects/op, want 0", avg)
		}
		sc := NewTwiddleScratch(r.N)
		if avg := testing.AllocsPerRun(10, func() {
			r.NTTOnTheFlyWith(p, sc)
			r.INTT(p)
		}); avg != 0 {
			t.Fatalf("NTTOnTheFlyWith allocates %.1f objects/op, want 0", avg)
		}
	})
}

// TestNTTOnTheFlyWithMatchesPrecomputed checks the scratch variant against
// the table-driven transform.
func TestNTTOnTheFlyWithMatchesPrecomputed(t *testing.T) {
	r := NewRing(6, GenerateNTTPrimes(40, 6, 1)[0])
	a := r.NewPoly()
	b := r.NewPoly()
	for i := range a {
		a[i] = uint64(i*i+7) % r.Mod.Q
		b[i] = a[i]
	}
	r.NTT(a)
	sc := NewTwiddleScratch(r.N)
	r.NTTOnTheFlyWith(b, sc)
	if !r.Equal(a, b) {
		t.Fatal("NTTOnTheFlyWith disagrees with precomputed NTT")
	}
}

// TestMulByMonomialIntoMatches checks the no-alias fast path against the
// temporary-buffer reference for every rotation class (no wrap, wrap, k≥N).
func TestMulByMonomialIntoMatches(t *testing.T) {
	r := NewRing(5, GenerateNTTPrimes(40, 5, 1)[0])
	p := r.NewPoly()
	for i := range p {
		p[i] = uint64(i + 1)
	}
	for _, k := range []int{0, 1, 7, r.N - 1, r.N, r.N + 3, 2*r.N - 1, -1, -r.N} {
		want := r.NewPoly()
		r.MulByMonomial(p, k, want)
		got := r.NewPoly()
		r.MulByMonomialInto(p, k, got)
		if !r.Equal(want, got) {
			t.Fatalf("k=%d: MulByMonomialInto disagrees with MulByMonomial", k)
		}
	}
}
