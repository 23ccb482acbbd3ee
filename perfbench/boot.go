package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"heap/internal/ckks"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
)

// The boot workload's ring: the paper's N=2¹³ with seven 36-bit limbs and
// four 37-bit auxiliary limbs, dnum 2. The bootstrap is sparse (16 slots,
// n_br=32 blind rotations) and n_t is cut from the paper's 500 to 8,
// because a rotation's cost grows linearly with n_t.
const (
	bootLogN  = 13
	bootNT    = 8
	bootCount = 32
)

// bootEnv is one fully built boot workload: keys, bootstrapper and the
// fixed input ciphertext with its plaintext.
type bootEnv struct {
	cl   *ckks.Client
	bt   *core.Bootstrapper
	ct   *rlwe.Ciphertext
	want []complex128
}

// seededValues draws n slot values from seed, inside the bootstrap's valid
// message range (|m| well below q0/4).
func seededValues(seed uint64, n int) []complex128 {
	r := rand.New(rand.NewSource(int64(seed)))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(0.6*r.Float64()-0.3, 0.5*r.Float64()-0.25)
	}
	return v
}

// newBootEnv builds the workload. Keys come from fixed seeds; only the
// message and its encryption randomness follow the run's seed.
func newBootEnv(seed uint64, workers int) (*bootEnv, error) {
	q := ring.GenerateNTTPrimes(36, bootLogN, 7)
	p := ring.GenerateNTTPrimesUp(37, bootLogN, 4)
	params, err := ckks.NewParameters(bootLogN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<35), bootCount/2)
	if err != nil {
		return nil, err
	}
	kg := rlwe.NewKeyGenerator(params.Parameters, 1)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := core.DefaultConfig()
	cfg.NT = bootNT
	cfg.Workers = workers
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		return nil, err
	}
	cl := ckks.NewClient(params, sk, seed)
	want := seededValues(seed, params.Slots)
	return &bootEnv{cl: cl, bt: bt, ct: cl.EncryptAtLevel(want, 1), want: want}, nil
}

// split is one bootstrap timed call by call. The three calls are exactly
// what BootstrapSparse runs.
type split struct {
	prepare, rotate, finish, wall time.Duration
}

func (e *bootEnv) bootstrap() (*rlwe.Ciphertext, split, error) {
	return timedBootstrap(e.bt, e.ct, bootCount)
}

// timedBootstrap runs BootstrapSparse(ct, count) as its three calls and
// times each call on its own, so the wall time minus the three calls is
// the glue between them.
func timedBootstrap(bt *core.Bootstrapper, ct *rlwe.Ciphertext, count int) (*rlwe.Ciphertext, split, error) {
	t0 := time.Now()
	prep := bt.PrepareSparse(ct, count)
	t1 := time.Now()
	accs := make([]*rlwe.Ciphertext, len(prep.LWEs))
	t2 := time.Now()
	bt.CompleteMissing(prep, accs)
	t3 := time.Now()
	out, err := bt.Finish(prep, accs)
	t4 := time.Now()
	return out, split{prepare: t1.Sub(t0), rotate: t3.Sub(t2), finish: t4.Sub(t3), wall: t4.Sub(t0)}, err
}

// check decrypts out and returns its precision; it fails when the error
// exceeds the bootstrapper's analytic bound.
func (e *bootEnv) check(out *rlwe.Ciphertext) (bits float64, err error) {
	bits, maxErr := precisionBits(e.cl.Decrypt(out), e.want)
	if bound := e.bt.ExpectedSlotErrorBound(); !(maxErr <= bound) {
		return bits, fmt.Errorf("largest slot error %.3g exceeds the bound %.3g", maxErr, bound)
	}
	return bits, nil
}

func equalCiphertext(a, b *rlwe.Ciphertext) bool {
	if a.Level() != b.Level() || a.IsNTT != b.IsNTT {
		return false
	}
	for i := range a.C0.Limbs {
		for j := range a.C0.Limbs[i] {
			if a.C0.Limbs[i][j] != b.C0.Limbs[i][j] || a.C1.Limbs[i][j] != b.C1.Limbs[i][j] {
				return false
			}
		}
	}
	return true
}

// setupBoot builds the environment setupReps times, each time ending with
// one untimed warm-up bootstrap, and keeps the last. It returns the set-up
// times and the warm-up output, the reference every later output must match.
func setupBoot(o options) (*bootEnv, *rlwe.Ciphertext, []float64, error) {
	var (
		env    *bootEnv
		ref    *rlwe.Ciphertext
		setups []float64
	)
	reps := setupReps
	if o.trace {
		reps = 1 // the traced run reports no set-up time
	}
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		env = nil
		runtime.GC()
		var err error
		if env, err = newBootEnv(o.seed, runtime.NumCPU()); err != nil {
			return nil, nil, nil, err
		}
		if ref, _, err = env.bootstrap(); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return env, ref, setups, nil
}

func runBoot(o options) (*report, error) {
	env, ref, setups, err := setupBoot(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	precision, err := env.check(ref)
	if err != nil {
		rep.fail("warm-up bootstrap: %v", err)
	}
	if o.trace {
		return rep, traceBoot(o, env, ref, rep)
	}

	var lat []float64
	ok := 0
	start := time.Now()
	for rep.attempted == 0 || time.Since(start) < o.window {
		out, s, err := env.bootstrap()
		rep.attempted++
		switch {
		case err != nil:
			rep.failed++
			rep.fail("bootstrap %d: %v", rep.attempted, err)
			continue
		case !equalCiphertext(out, ref):
			rep.failed++
			rep.fail("bootstrap %d differs from the first repetition", rep.attempted)
			continue
		}
		if _, err := env.check(out); err != nil {
			rep.failed++
			rep.fail("bootstrap %d: %v", rep.attempted, err)
			continue
		}
		ok++
		lat = append(lat, ms(s.wall))
	}
	rep.endToEnd(setups, lat, ok, time.Since(start), rep.attempted, ok, precision)
	return rep, nil
}

// stageTimes is one traced bootstrap's attribution.
type stageTimes struct {
	wall, prepare, rotate, finish, repack, trace float64 // ms
	spans                                        float64 // ms, the pipeline spans' sum
	counters                                     [obs.NumCounters]uint64
}

// checkTraced fails the run when a traced bootstrap's attribution does not
// add up: the three core calls and the program's own pipeline spans must
// each account for the wall time within 5%, and the merge tree must merge
// count−1 times. extProducts > 0 also pins the external-product count.
func checkTraced(rep *report, st stageTimes, count int, extProducts uint64) {
	if gap := st.wall - st.prepare - st.rotate - st.finish; gap > 0.05*st.wall {
		rep.fail("the three core calls leave %.3f ms of a %.3f ms bootstrap unexplained", gap, st.wall)
	}
	if d := math.Abs(st.spans - st.wall); d > 0.05*st.wall {
		rep.fail("pipeline spans sum to %.3f ms of a %.3f ms bootstrap", st.spans, st.wall)
	}
	if got := st.counters[obs.CounterMerge]; got != uint64(count-1) {
		rep.fail("%d merges, want n_br−1 = %d", got, count-1)
	}
	if got := st.counters[obs.CounterExternalProduct]; extProducts > 0 && got != extProducts {
		rep.fail("%d external products, want n_br·n_t = %d", got, extProducts)
	}
}

// traceBoot alternates untraced and traced bootstraps for the run's window
// (at least two of each) and then times the isolated kernels at the boot
// ring.
func traceBoot(o options, env *bootEnv, ref *rlwe.Ciphertext, rep *report) error {
	var plain []float64
	var traced []stageTimes
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.window; i++ {
		out, s, err := env.bootstrap()
		rep.attempted++
		if err != nil || !equalCiphertext(out, ref) {
			rep.failed++
			rep.fail("untraced bootstrap %d: wrong output (err %v)", rep.attempted, err)
		}
		plain = append(plain, ms(s.wall))

		met := obs.NewMetrics()
		env.bt.SetRecorder(met)
		out, s, err = env.bootstrap()
		env.bt.SetRecorder(nil)
		rep.attempted++
		if err != nil || !equalCiphertext(out, ref) {
			rep.failed++
			rep.fail("traced bootstrap %d: wrong output (err %v)", rep.attempted, err)
		}
		st := stagesOf(s, met)
		checkTraced(rep, st, bootCount, bootCount*bootNT)
		traced = append(traced, st)
	}
	setStageMetrics(rep, traced, plain)

	prep := env.bt.PrepareSparse(env.ct, bootCount)
	measureKernels(env.bt, prep.LWEs[:serveRots], runtime.NumCPU()).set(rep)
	return nil
}

func stagesOf(s split, met *obs.Metrics) stageTimes {
	snap := met.Snapshot()
	st := stageTimes{
		wall: ms(s.wall), prepare: ms(s.prepare), rotate: ms(s.rotate), finish: ms(s.finish),
		repack: snap.Pipeline[obs.StageRepack.String()].TotalMs,
		trace:  snap.Pipeline[obs.StageFinish.String()].TotalMs,
		spans:  met.PipelineTotalMs(),
	}
	for c := 0; c < obs.NumCounters; c++ {
		st.counters[c] = met.Counter(obs.Counter(c))
	}
	return st
}

// setStageMetrics reports the medians of the traced bootstraps' stage
// attribution and counters, and the tracing overhead against the untraced
// bootstraps run alternately with them.
func setStageMetrics(rep *report, traced []stageTimes, plain []float64) {
	col := func(f func(stageTimes) float64) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	n := len(traced)
	cnt := func(c obs.Counter) float64 { return col(func(t stageTimes) float64 { return float64(t.counters[c]) }) }
	rep.set("core.prepare_ms", col(func(t stageTimes) float64 { return t.prepare }), "ms", n)
	rep.set("core.blindrotate_ms", col(func(t stageTimes) float64 { return t.rotate }), "ms", n)
	rep.set("core.finish_ms", col(func(t stageTimes) float64 { return t.finish }), "ms", n)
	rep.set("core.repack_ms", col(func(t stageTimes) float64 { return t.repack }), "ms", n)
	rep.set("core.trace_ms", col(func(t stageTimes) float64 { return t.trace }), "ms", n)
	rep.set("core.unexplained_ms", col(func(t stageTimes) float64 { return t.wall - t.prepare - t.rotate - t.finish }), "ms", n)
	rep.set("rlwe.extprod_count", cnt(obs.CounterExternalProduct), "count", n)
	rep.set("rlwe.keyswitch_count", cnt(obs.CounterKeySwitch), "count", n)
	rep.set("rlwe.merge_count", cnt(obs.CounterMerge), "count", n)
	rep.set("ring.ntt_count", cnt(obs.CounterNTT), "count", n)
	rep.set("tfhe.brk_bytes_per_rot", col(func(t stageTimes) float64 {
		return float64(t.counters[obs.CounterBRKBytesStreamed]) / float64(t.counters[obs.CounterBlindRotate])
	}), "bytes", n)
	overhead := 0.0 // no untraced twin runs where the recorder is always on
	if len(plain) > 0 {
		overhead = col(func(t stageTimes) float64 { return t.wall })/median(plain) - 1
	}
	rep.set("obs.overhead_frac", overhead, "fraction", n)
}
