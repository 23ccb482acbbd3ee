// Command heapbench regenerates the paper's evaluation tables (II–VIII)
// from the calibrated hardware model, the workload schedules, and the
// published baseline numbers:
//
//	heapbench            # print every table
//	heapbench -table 5   # print one table
//	heapbench -keys      # §III-C key-traffic accounting
//	heapbench -sweep     # FPGA-count scaling sweep for the bootstrap
//	heapbench -cluster   # fault-tolerant distributed bootstrap demo
//	heapbench -cluster -churn
//	                     # self-healing elastic cluster demo: hedged dispatch
//	                     # around a stalled node, a cold node joining mid-run,
//	                     # a kill mid-key-upload with a chunk-exact resume
//	                     # after rejoin, and a graceful drain — each run
//	                     # checked bit-exact against a local bootstrap
//	heapbench -benchjson BENCH_repack.json
//	                     # time the repack/Finish tail serial vs parallel
//	                     # at the paper ring and write the numbers as JSON
//	heapbench -benchjson BENCH_blindrotate.json
//	                     # time ciphertext-major vs key-major batched blind
//	                     # rotation at the paper ring and write the numbers
//	                     # (plus the counter-verified BRK traffic) as JSON;
//	                     # the mode is picked by the output basename, and
//	                     # -brcount/-brtile/-brworkers/-brnt/-brruns shrink
//	                     # or reshape the run for quick regression checks
//	heapbench -benchjson BENCH_kernels.json
//	                     # per-prime modular-kernel ablation over the committed
//	                     # basis (generic Barrett vs fixed-shift Barrett vs
//	                     # Montgomery vs Shoup scalar chains, plus the NTT, INTT
//	                     # and fixed-shift MAC at the paper ring, scalar and
//	                     # vector); -kruns sets the timed runs per point
//	heapbench -benchjson BENCH_load.json
//	                     # closed-/open-loop scaling matrix through the full
//	                     # serving stack (internal/load): a worker/executor
//	                     # sweep plus an offered-load sweep per arrival
//	                     # pattern, each point with latency percentiles,
//	                     # rejection rate, and coalescing counters;
//	                     # -ldjobs/-ldworkers/-ldrates/-ldpatterns reshape it
//	heapbench -trace out.json
//	                     # run a local bootstrap with the observability layer
//	                     # on and write a Chrome trace_event timeline (open in
//	                     # chrome://tracing or Perfetto); also prints the
//	                     # expvar-style metrics snapshot
//	heapbench -cluster -trace out.json
//	                     # same, for the distributed fault-injection demo:
//	                     # one timeline lane per node/worker, Fig. 4 style
//
// The -cpuprofile and -memprofile flags write pprof profiles of whichever
// mode runs — the intended use is profiling the blind-rotation hot path via
// -cluster (e.g. heapbench -cluster -cpuprofile cpu.out -memprofile mem.out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"heap"
	"heap/internal/ckks"
	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/experiments"
	"heap/internal/hwsim"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/tfhe"
)

func main() {
	table := flag.Int("table", 0, "print a single table (2-8)")
	keys := flag.Bool("keys", false, "print the §III-C key-material report")
	area := flag.Bool("area", false, "print the §VI-B area/power comparison")
	sweep := flag.Bool("sweep", false, "sweep bootstrap latency over FPGA counts")
	chaos := flag.Bool("cluster", false, "run an in-process distributed bootstrap with fault injection")
	churn := flag.Bool("churn", false, "with -cluster: elastic membership churn demo (join/leave/kill mid-key-upload/hedge)")
	benchJSON := flag.String("benchjson", "", "benchmark and write JSON to this file (mode from -benchmode, falling back to the output basename)")
	benchMode := flag.String("benchmode", "", "benchjson mode: repack | blindrotate | kernels | serve | load (empty = infer from the output basename: BENCH_blindrotate* → blindrotate, BENCH_kernels* → kernels, BENCH_service* → serve, BENCH_load* → load, else repack)")
	serveFlag := flag.Bool("serve", false, "with -benchjson: shorthand for -benchmode serve (service-level load driver)")
	svcTenants := flag.Int("svctenants", 2, "serve mode: tenants (distinct keys)")
	svcConns := flag.Int("svcconns", 2, "serve mode: concurrent connections per tenant")
	svcJobs := flag.Int("svcjobs", 8, "serve mode: jobs per connection")
	svcBatch := flag.Int("svcbatch", 16, "serve mode: rotations per job")
	svcWindow := flag.Duration("svcwindow", 20*time.Millisecond, "serve mode: coalescing window")
	ldJobs := flag.Int("ldjobs", 48, "load mode: jobs per matrix point")
	ldWorkers := flag.String("ldworkers", "1,2", "load mode: comma-separated parallelism sweep for the closed-loop points (each entry runs as N executors and, when >1, as N batch workers; clamped to GOMAXPROCS)")
	ldRates := flag.String("ldrates", "100,200,400", "load mode: comma-separated offered-load sweep in jobs/s for the open-loop points")
	ldPatterns := flag.String("ldpatterns", "uniform,hotkey,bursty", "load mode: comma-separated arrival patterns for the open-loop sweep")
	brCount := flag.Int("brcount", 256, "blind-rotate mode: batch size n_br")
	brTile := flag.Int("brtile", tfhe.DefaultTile, "blind-rotate mode: key-major tile size")
	brWorkers := flag.Int("brworkers", 1, "blind-rotate mode: batch workers (1 isolates the cache effect; >1 adds core scaling)")
	brNT := flag.Int("brnt", 8, "blind-rotate mode: LWE dimension n_t (per-rotation cost scales linearly; the paper's 500 takes minutes per rotation on a CPU)")
	brRuns := flag.Int("brruns", 2, "blind-rotate mode: timed runs per schedule (best is kept)")
	kRuns := flag.Int("kruns", 3, "kernels mode: timed runs per kernel point (best is kept)")
	rpWorkers := flag.String("rpworkers", "", "repack mode: comma-separated worker counts to sweep (e.g. 1,2,4,8); the sweep is appended to the JSON as worker_sweep alongside the gated serial/parallel pair")
	trace := flag.String("trace", "", "write a Chrome trace_event timeline of the bootstrap to this file (combine with -cluster for the distributed demo)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the selected mode to this file")
	nosimd := flag.Bool("nosimd", false, "disable the vectorized modular kernels and run the pure scalar paths (also: HEAP_NOSIMD=1)")
	flag.Parse()

	if *nosimd {
		ring.SetSIMD(false)
	}
	obs.SetISA(ring.SIMDLevel())

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	switch {
	case *benchJSON != "":
		// Mode selection: explicit flag wins; otherwise fall back to the
		// output basename. The old basename-only dispatch silently ran the
		// repack benchmark for any path not spelled BENCH_blindrotate*, so
		// the selected mode (and what selected it) is now printed up front.
		mode := *benchMode
		if *serveFlag && mode == "" {
			mode = "serve"
		}
		selectedBy := "-benchmode"
		if mode == "" {
			selectedBy = "output basename"
			base := filepath.Base(*benchJSON)
			switch {
			case strings.HasPrefix(base, "BENCH_blindrotate"):
				mode = "blindrotate"
			case strings.HasPrefix(base, "BENCH_kernels"):
				mode = "kernels"
			case strings.HasPrefix(base, "BENCH_service"):
				mode = "serve"
			case strings.HasPrefix(base, "BENCH_load"):
				mode = "load"
			default:
				mode = "repack"
			}
		}
		fmt.Printf("benchjson mode: %s (selected by %s)\n", mode, selectedBy)
		var err error
		switch mode {
		case "blindrotate":
			err = runBenchBlindRotate(*benchJSON, *brCount, *brTile, *brWorkers, *brNT, *brRuns)
		case "kernels":
			err = runBenchKernels(*benchJSON, *kRuns)
		case "serve":
			err = runBenchServe(*benchJSON, *svcTenants, *svcConns, *svcJobs, *svcBatch, *svcWindow)
		case "load":
			err = runBenchLoad(*benchJSON, *ldJobs, *ldWorkers, *ldRates, *ldPatterns)
		case "repack":
			err = runBenchJSON(*benchJSON, *rpWorkers)
		default:
			err = fmt.Errorf("unknown -benchmode %q (repack|blindrotate|kernels|serve|load)", mode)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *chaos && *churn:
		if err := runChurn(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *chaos:
		if err := runCluster(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *trace != "":
		if err := runTraceLocal(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *keys:
		fmt.Print(experiments.KeyReport())
	case *area:
		fmt.Print(experiments.AreaReport())
	case *sweep:
		fmt.Println("Scheme-switching bootstrap latency vs number of FPGAs (fully packed, n=4096)")
		fmt.Printf("%6s %12s %12s %12s\n", "FPGAs", "step3 (ms)", "comm (ms)", "total (ms)")
		for _, n := range []int{1, 2, 4, 8, 16} {
			s := hwsim.NewSystem(hwsim.AlveoU280(), hwsim.PaperParams(), n)
			b := s.Bootstrap(1 << 12)
			fmt.Printf("%6d %12.4f %12.4f %12.4f\n", n, b.Step3Ms, b.CommMs, b.TotalMs)
		}
	case *table != 0:
		var out string
		switch *table {
		case 2:
			out = experiments.Table2()
		case 3:
			out = experiments.Table3()
		case 4:
			out = experiments.Table4()
		case 5:
			out = experiments.Table5()
		case 6:
			out = experiments.Table6()
		case 7:
			out = experiments.Table7()
		case 8:
			out = experiments.Table8()
		default:
			fmt.Fprintln(os.Stderr, "tables 2-8 are available")
			os.Exit(2)
		}
		fmt.Print(out)
	default:
		fmt.Print(experiments.All())
	}
}

// benchResult is the JSON record runBenchJSON writes: the parameter set,
// the measured serial and parallel wall times of the Finish tail (steps 4–5
// of Algorithm 2: accumulator NTTs, merge tree, shared trace, rescale), and
// the resulting speedup. Cores is recorded because the speedup is only
// meaningful when the host actually has parallel hardware.
type benchResult struct {
	LogN        int          `json:"logN"`
	Limbs       int          `json:"q_limbs"`
	Count       int          `json:"n_br"`
	Cores       int          `json:"cores"`
	Workers     int          `json:"parallel_workers"`
	Runs        int          `json:"runs_per_point"`
	SerialMs    float64      `json:"finish_serial_ms"`
	ParallelMs  float64      `json:"finish_parallel_ms"`
	Speedup     float64      `json:"speedup"`
	WorkerSweep []sweepPoint `json:"worker_sweep,omitempty"`
}

// sweepPoint is one entry of the optional -rpworkers sweep: the Finish wall
// time at an explicit worker count. The sweep rides alongside the gated
// serial/parallel pair (a new JSON field is a benchdiff pass-with-note, so
// sweeping never invalidates a committed baseline).
type sweepPoint struct {
	Workers  int     `json:"workers"`
	FinishMs float64 `json:"finish_ms"`
}

// runBenchJSON times the repacking tail of the bootstrap at the paper's ring
// (N=2^13, seven 36-bit limbs, n_br=256) with one worker and with one worker
// per core (minimum four, the ISSUE's target), and writes the best-of-N
// timings as JSON. The two configurations compute bit-identical outputs —
// locked by the repack equivalence tests — so this is a pure scheduling
// comparison. A non-empty sweepSpec ("1,2,4") additionally times Finish at
// each listed worker count.
func runBenchJSON(path, sweepSpec string) error {
	q := ring.GenerateNTTPrimes(36, 13, 7)
	p := ring.GenerateNTTPrimesUp(37, 13, 4)
	params := ckks.MustParameters(13, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<35), 1<<12)
	kg := rlwe.NewKeyGenerator(params.Parameters, 41)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cl := ckks.NewClient(params, sk, 42)
	cfg := core.DefaultConfig()
	cfg.NT = 8 // the Finish tail never touches n_t; small n_t keeps keygen quick
	cfg.Workers = 1
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	if err != nil {
		return err
	}
	const count = 256
	const runs = 3
	v := make([]complex128, params.Slots)
	prep := bt.PrepareSparse(cl.EncryptAtLevel(v, 1), count)
	s := ring.NewSampler(43)
	accs := make([]*rlwe.Ciphertext, count)
	for i := range accs {
		acc := bt.NewAccumulator()
		for l := 0; l < acc.Level(); l++ {
			s.UniformPoly(params.QBasis.Rings[l], acc.C0.Limbs[l])
			s.UniformPoly(params.QBasis.Rings[l], acc.C1.Limbs[l])
		}
		accs[i] = acc
	}
	timeFinish := func(workers int) (float64, error) {
		bt.Cfg.Workers = workers
		best := math.MaxFloat64
		for r := 0; r < runs; r++ {
			// Finish consumes the accumulators but preserves their level;
			// resetting IsNTT restores the real workload each run.
			for _, acc := range accs {
				acc.IsNTT = false
			}
			t0 := time.Now()
			if _, err := bt.Finish(prep, accs); err != nil {
				return 0, err
			}
			if d := float64(time.Since(t0).Microseconds()) / 1e3; d < best {
				best = d
			}
		}
		return best, nil
	}
	res := benchResult{LogN: 13, Limbs: 7, Count: count, Cores: runtime.NumCPU(), Runs: runs}
	res.Workers = res.Cores
	if res.Workers < 4 {
		res.Workers = 4
	}
	fmt.Printf("timing Finish (N=2^13, 7 limbs, n_br=%d) serial vs %d workers on %d core(s)...\n",
		count, res.Workers, res.Cores)
	if res.SerialMs, err = timeFinish(1); err != nil {
		return err
	}
	if res.ParallelMs, err = timeFinish(res.Workers); err != nil {
		return err
	}
	res.Speedup = res.SerialMs / res.ParallelMs
	if sweepSpec != "" {
		for _, field := range strings.Split(sweepSpec, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || w <= 0 {
				return fmt.Errorf("heapbench: -rpworkers %q: each entry must be a positive integer", sweepSpec)
			}
			ms, err := timeFinish(w)
			if err != nil {
				return err
			}
			fmt.Printf("  sweep w%d: %.1f ms\n", w, ms)
			res.WorkerSweep = append(res.WorkerSweep, sweepPoint{Workers: w, FinishMs: ms})
		}
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("serial %.1f ms, parallel %.1f ms, speedup %.2fx -> %s\n",
		res.SerialMs, res.ParallelMs, res.Speedup, path)
	return nil
}

// kernelPrimeResult is one row of the per-prime kernel ablation: the
// best-of-N latency of each scalar reduction kernel on a serially dependent
// chain at that modulus (the software analog of the paper's §IV-A
// DSP-multiplier comparison, measured per modulus because the fixed-shift
// Barrett window and the Montgomery constants are per-prime).
type kernelPrimeResult struct {
	Q              uint64  `json:"q"`
	Bits           int     `json:"bits"`
	BarrettNs      float64 `json:"barrett_ns"`
	BarrettFixedNs float64 `json:"barrett_fixed_ns"`
	MontgomeryNs   float64 `json:"montgomery_ns"`
	ShoupNs        float64 `json:"shoup_ns"`
}

// kernelsBenchResult is the JSON record runBenchKernels writes: the
// per-prime scalar-chain table over the committed basis, basis-wide
// averages, and the figures the Makefile gate compares — the Shoup-twiddle
// NTT and the fixed-shift Barrett MAC (the basis-conversion/external-product
// inner loop), both at the paper ring.
type kernelsBenchResult struct {
	LogN              int                 `json:"logN"`
	Limbs             int                 `json:"q_limbs"`
	Cores             int                 `json:"cores"`
	Runs              int                 `json:"runs_per_point"`
	PerPrime          []kernelPrimeResult `json:"per_prime"`
	BarrettNsAvg      float64             `json:"barrett_ns_avg"`
	BarrettFixedNsAvg float64             `json:"barrett_fixed_ns_avg"`
	MontgomeryNsAvg   float64             `json:"montgomery_ns_avg"`
	ShoupNsAvg        float64             `json:"shoup_ns_avg"`
	NTTShoupUs        float64             `json:"ntt_shoup_us"`
	INTTUs            float64             `json:"intt_us"`
	MacFixedUs        float64             `json:"mac_fixed_us"`
	// Vector-dispatch tier: the same NTT and fixed-shift MAC with the vector
	// kernels enabled at the best level the host supports (ISA names it;
	// the *_avx2_us names predate the avx512ifma level and are kept so the
	// committed baselines stay comparable). The scalar columns above are
	// always measured with the vector path forced off, so they stay
	// comparable across PRs and hosts; the speedups are scalar/vector on
	// this run. Omitted (with ISA "none") when the host or build has no
	// vector path.
	ISA             string  `json:"isa"`
	NTTAvx2Us       float64 `json:"ntt_avx2_us,omitempty"`
	INTTAvx2Us      float64 `json:"intt_avx2_us,omitempty"`
	MacAvx2Us       float64 `json:"mac_avx2_us,omitempty"`
	NTTSIMDSpeedup  float64 `json:"ntt_simd_speedup,omitempty"`
	INTTSIMDSpeedup float64 `json:"intt_simd_speedup,omitempty"`
	MacSIMDSpeedup  float64 `json:"mac_simd_speedup,omitempty"`
}

// kernelSink defeats dead-code elimination of the scalar chains.
var kernelSink uint64

// chainNs times a serially dependent scalar chain: f must consume its
// running value each iteration so the measured latency is the kernel's
// dependent latency, not its pipelined throughput. Best of runs, ns/op.
func chainNs(runs, iters int, f func(iters int) uint64) float64 {
	best := math.MaxFloat64
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		kernelSink ^= f(iters)
		if d := float64(time.Since(t0).Nanoseconds()) / float64(iters); d < best {
			best = d
		}
	}
	return best
}

// runBenchKernels measures the per-prime modular-kernel ablation over the
// committed paper basis and writes it as JSON. Three tiers: (1) scalar
// dependent-latency chains of the four reduction kernels at every modulus,
// (2) the full logN=13 NTT and INTT and the MulCoeffsAndAdd MAC with the
// vector dispatch forced off, (3) the same transforms and MAC at the best
// vector level. The committed BENCH_kernels.json gates tiers 2 and 3 via
// `make bench-kernels`; tier 1 is the explanatory table DESIGN.md cites.
func runBenchKernels(path string, runs int) error {
	if runs <= 0 {
		return fmt.Errorf("heapbench: -kruns must be positive")
	}
	primes := ring.GenerateNTTPrimes(36, 13, 7)
	primes = append(primes, ring.GenerateNTTPrimesUp(37, 13, 4)...)
	res := kernelsBenchResult{LogN: 13, Limbs: 7, Cores: runtime.NumCPU(), Runs: runs}
	fmt.Printf("timing reduction kernels over %d primes (best of %d runs)...\n", len(primes), runs)

	const chainIters = 1 << 21
	for _, q := range primes {
		m := ring.NewModulus(q)
		row := kernelPrimeResult{Q: q, Bits: bits.Len64(q)}
		row.BarrettNs = chainNs(runs, chainIters, func(n int) uint64 {
			r := uint64(987654321)
			for i := 0; i < n; i++ {
				r = m.MulModBarrett(r^uint64(i), 123456789)
			}
			return r
		})
		row.BarrettFixedNs = chainNs(runs, chainIters, func(n int) uint64 {
			// r^i stays far below q²/b, so the x < q² precondition holds.
			r := uint64(987654321)
			for i := 0; i < n; i++ {
				r = m.MulModBarrettFixed(r^uint64(i), 123456789)
			}
			return r
		})
		row.MontgomeryNs = chainNs(runs, chainIters, func(n int) uint64 {
			xm := m.MForm(123456789)
			r := uint64(987654321)
			for i := 0; i < n; i++ {
				r = m.MRed(r^uint64(i), xm)
			}
			return r
		})
		row.ShoupNs = chainNs(runs, chainIters, func(n int) uint64 {
			w := uint64(123456789)
			wS := m.ShoupPrecomp(w)
			r := uint64(987654321)
			for i := 0; i < n; i++ {
				r = m.MulModShoup(r^uint64(i), w, wS)
			}
			return r
		})
		res.PerPrime = append(res.PerPrime, row)
		res.BarrettNsAvg += row.BarrettNs
		res.BarrettFixedNsAvg += row.BarrettFixedNs
		res.MontgomeryNsAvg += row.MontgomeryNs
		res.ShoupNsAvg += row.ShoupNs
	}
	np := float64(len(primes))
	res.BarrettNsAvg /= np
	res.BarrettFixedNsAvg /= np
	res.MontgomeryNsAvg /= np
	res.ShoupNsAvg /= np

	// Tier 2: the real transform and MAC at the paper ring. The scalar
	// columns are measured with the vector dispatch forced off so they
	// track the scalar kernels across PRs regardless of host ISA; tier 3
	// re-enables it for the vector columns.
	r := ring.NewRing(13, primes[0])
	poly := r.NewPoly()
	ring.NewSampler(71).UniformPoly(r, poly)
	const nttReps = 64
	timeNTT := func(f func(ring.Poly)) float64 {
		best := math.MaxFloat64
		for run := 0; run < runs; run++ {
			t0 := time.Now()
			for i := 0; i < nttReps; i++ {
				f(poly)
			}
			if d := float64(time.Since(t0).Microseconds()) / nttReps; d < best {
				best = d
			}
		}
		return best
	}
	hadSIMD := ring.SIMDLevel() != "none"
	ring.SetSIMD(false)
	res.NTTShoupUs = timeNTT(r.NTT)
	res.INTTUs = timeNTT(r.INTT)

	// The MAC is the fixed-shift Barrett loop inside MulCoeffsAndAdd.
	a, bb, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
	s := ring.NewSampler(72)
	s.UniformPoly(r, a)
	s.UniformPoly(r, bb)
	const macReps = 64
	timeMAC := func() float64 {
		best := math.MaxFloat64
		for run := 0; run < runs; run++ {
			t0 := time.Now()
			for i := 0; i < macReps; i++ {
				r.MulCoeffsAndAdd(a, bb, acc)
			}
			if d := float64(time.Since(t0).Microseconds()) / macReps; d < best {
				best = d
			}
		}
		return best
	}
	res.MacFixedUs = timeMAC()

	// Tier 3: the vector-dispatch columns, same workloads with the vector
	// kernels back on.
	if hadSIMD {
		ring.SetSIMD(true)
		res.NTTAvx2Us = timeNTT(r.NTT)
		res.INTTAvx2Us = timeNTT(r.INTT)
		res.MacAvx2Us = timeMAC()
		res.NTTSIMDSpeedup = res.NTTShoupUs / res.NTTAvx2Us
		res.INTTSIMDSpeedup = res.INTTUs / res.INTTAvx2Us
		res.MacSIMDSpeedup = res.MacFixedUs / res.MacAvx2Us
	}
	res.ISA = ring.SIMDLevel()

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scalar avg over basis: Barrett %.1f ns, fixed Barrett %.1f ns, Montgomery %.1f ns, Shoup %.1f ns\n",
		res.BarrettNsAvg, res.BarrettFixedNsAvg, res.MontgomeryNsAvg, res.ShoupNsAvg)
	fmt.Printf("NTT (logN=13): %.1f us, INTT %.1f us; MAC: fixed %.1f us\n",
		res.NTTShoupUs, res.INTTUs, res.MacFixedUs)
	if res.ISA != "none" {
		fmt.Printf("%s: NTT %.1f us (%.2fx), INTT %.1f us (%.2fx), MAC %.1f us (%.2fx) -> %s\n",
			res.ISA, res.NTTAvx2Us, res.NTTSIMDSpeedup, res.INTTAvx2Us, res.INTTSIMDSpeedup, res.MacAvx2Us, res.MacSIMDSpeedup, path)
	} else {
		fmt.Printf("vector path unavailable (isa=none) -> %s\n", path)
	}
	return nil
}

// brBenchResult is the JSON record runBenchBlindRotate writes: the parameter
// point, the wall time of the whole batch under each schedule, the derived
// per-rotation figures (the count-independent numbers `make benchdiff`
// gates on), and the BRK traffic taken from the brk_bytes_streamed counters —
// the same accounting TestKeyReuseMatchesSoftwareCounters locks against the
// hardware model's KeyTraffic.
type brBenchResult struct {
	LogN          int     `json:"logN"`
	Limbs         int     `json:"q_limbs"`
	NT            int     `json:"n_t"`
	Count         int     `json:"n_br"`
	Tile          int     `json:"tile"`
	Workers       int     `json:"workers"`
	Cores         int     `json:"cores"`
	Runs          int     `json:"runs_per_point"`
	PerCtMs       float64 `json:"per_ct_ms"`
	BatchMs       float64 `json:"batch_ms"`
	PerCtUsPerRot float64 `json:"per_ct_us_per_rot"`
	BatchUsPerRot float64 `json:"batch_us_per_rot"`
	Speedup       float64 `json:"speedup"`
	PerCtKeyBytes int64   `json:"per_ct_brk_bytes"`
	BatchKeyBytes int64   `json:"batch_brk_bytes"`
	KeyReuse      float64 `json:"key_reuse"`
	ModelKeyReuse float64 `json:"model_key_reuse"`
}

// runBenchBlindRotate times a batch of blind rotations at the paper's ring
// (N=2^13, seven 36-bit limbs) under the ciphertext-major and key-major
// schedules and writes the best-of-N timings plus the counter-verified BRK
// traffic as JSON. The two schedules compute bit-identical accumulators
// (locked by the batch equivalence test), so the timing delta is pure memory
// scheduling. Masks are dense (no zero elements) so the measured key-reuse
// factor is exactly the model's batch/⌈batch/tile⌉ ratio; n_t is reduced from
// the paper's 500 because per-rotation CPU cost scales linearly in it.
func runBenchBlindRotate(path string, count, tile, workers, nt, runs int) error {
	if count <= 0 || tile <= 0 || workers <= 0 || nt <= 0 || runs <= 0 {
		return fmt.Errorf("heapbench: -brcount/-brtile/-brworkers/-brnt/-brruns must be positive")
	}
	q := ring.GenerateNTTPrimes(36, 13, 7)
	p := ring.GenerateNTTPrimesUp(37, 13, 4)
	params := ckks.MustParameters(13, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<35), 1<<12)
	kg := rlwe.NewKeyGenerator(params.Parameters, 61)
	rsk := kg.GenSecretKey(rlwe.SecretTernary)
	lweSK := kg.GenLWESecretKey(nt, rlwe.SecretBinary)
	brk := tfhe.GenBlindRotateKey(kg, lweSK, rsk)
	ev := tfhe.NewEvaluator(params.Parameters, nil)
	lut := tfhe.NewLUTFromBig(params.Parameters, params.MaxLevel(), func(u int) *big.Int {
		return big.NewInt(int64(u))
	})

	twoN := uint64(2 * params.N())
	s := ring.NewSampler(62)
	lwes := make([]*rlwe.LWECiphertext, count)
	for j := range lwes {
		lwe := &rlwe.LWECiphertext{A: make([]uint64, nt), Q: twoN}
		for i := range lwe.A {
			lwe.A[i] = 1 + s.UniformMod(twoN-1)
		}
		lwe.B = s.UniformMod(twoN)
		lwes[j] = lwe
	}
	accs := make([]*rlwe.Ciphertext, count)
	for i := range accs {
		accs[i] = rlwe.NewCiphertext(params.Parameters, lut.Level)
	}

	res := brBenchResult{
		LogN: 13, Limbs: 7, NT: nt, Count: count, Tile: tile,
		Workers: workers, Cores: runtime.NumCPU(), Runs: runs,
	}
	fmt.Printf("timing %d blind rotations (N=2^13, 7 limbs, n_t=%d) ciphertext-major vs key-major tile %d (%d worker(s)) on %d core(s)...\n",
		count, nt, tile, workers, res.Cores)

	perCtMet := obs.NewMetrics()
	ev.KS.SetRecorder(perCtMet)
	sc := ev.NewScratch()
	res.PerCtMs = math.MaxFloat64
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		for j := range lwes {
			ev.BlindRotateInto(accs[j], lwes[j], lut, brk, sc)
		}
		if d := float64(time.Since(t0).Microseconds()) / 1e3; d < res.PerCtMs {
			res.PerCtMs = d
		}
	}
	batchMet := obs.NewMetrics()
	ev.KS.SetRecorder(batchMet)
	res.BatchMs = math.MaxFloat64
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		if err := ev.BlindRotateBatchInto(accs, lwes, lut, brk, tfhe.BatchOptions{Tile: tile, Workers: workers}); err != nil {
			return err
		}
		if d := float64(time.Since(t0).Microseconds()) / 1e3; d < res.BatchMs {
			res.BatchMs = d
		}
	}
	ev.KS.SetRecorder(nil)

	res.PerCtUsPerRot = res.PerCtMs * 1e3 / float64(count)
	res.BatchUsPerRot = res.BatchMs * 1e3 / float64(count)
	res.Speedup = res.PerCtMs / res.BatchMs
	// Counters accumulate across the timed runs; per-run traffic is the total
	// divided by the run count (every run streams identical bytes).
	res.PerCtKeyBytes = int64(perCtMet.Counter(obs.CounterBRKBytesStreamed)) / int64(runs)
	res.BatchKeyBytes = int64(batchMet.Counter(obs.CounterBRKBytesStreamed)) / int64(runs)
	if res.BatchKeyBytes > 0 {
		res.KeyReuse = float64(res.PerCtKeyBytes) / float64(res.BatchKeyBytes)
	}
	res.ModelKeyReuse = hwsim.PaperParams().KeyReuse(count, tile)

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("per-ct %.1f ms (%.0f us/rot), batch %.1f ms (%.0f us/rot), speedup %.2fx, key-reuse %.2fx (model %.2fx) -> %s\n",
		res.PerCtMs, res.PerCtUsPerRot, res.BatchMs, res.BatchUsPerRot, res.Speedup, res.KeyReuse, res.ModelKeyReuse, path)
	return nil
}

// writeTraceAndSnapshot flushes a tracer timeline to tracePath and prints the
// metrics snapshot plus the instrumented-vs-measured accounting: the sum of
// the pipeline-lane phase durations must agree with the end-to-end wall time
// (they tile it; the conformance tests hold the gap under 5%).
func writeTraceAndSnapshot(tracePath string, tracer *obs.Tracer, met *obs.Metrics, wall time.Duration) error {
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if _, err := tracer.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics snapshot:\n%s", met.JSON())
	fmt.Printf("pipeline phases sum to %.1f ms of %.1f ms measured; timeline -> %s\n",
		met.PipelineTotalMs(), float64(wall.Microseconds())/1e3, tracePath)
	return nil
}

// runTraceLocal runs one fully local bootstrap with the observability layer
// installed (Metrics aggregate + Chrome trace timeline) and writes both out.
func runTraceLocal(tracePath string) error {
	ctx, err := heap.NewContext(heap.TestContextConfig())
	if err != nil {
		return err
	}
	v := make([]complex128, ctx.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	ct := ctx.Client.EncryptAtLevel(v, 1)

	met := obs.NewMetrics()
	tracer := obs.NewTracer()
	ctx.Boot.SetRecorder(obs.Combine(met, tracer))
	start := time.Now()
	out := ctx.Boot.Bootstrap(ct)
	wall := time.Since(start)
	ctx.Boot.SetRecorder(nil)

	fmt.Printf("local bootstrap: %v; slot0 = %.3f (want 0.400)\n",
		wall.Round(time.Millisecond), real(ctx.Decrypt(out)[0]))
	return writeTraceAndSnapshot(tracePath, tracer, met, wall)
}

// runChurn demonstrates the self-healing elastic cluster in three acts, each
// checked bit-exact against a purely local bootstrap of the same ciphertext:
//
//  1. Hedged dispatch: a node wedges right after its handshake, its shard
//     ages past HedgeAfter, and the hedge monitor speculatively re-dispatches
//     the indices (the local workers win every claim).
//  2. Kill mid-key-upload: a key-cold node joins through the membership
//     listener, the chunked BRK upload starts, and its link is cut a few
//     chunks in. The primary's health machinery marks the member dead and
//     the run completes without it.
//  3. Resume + graceful drain: the dead node rejoins under the same name —
//     its key stash survived the connection, so the upload resumes from the
//     last acked chunk instead of restarting — while another node joins with
//     a pending leave request and is drained. The receiver-side unique-chunk
//     counters prove no byte of the key was re-received.
func runChurn() error {
	mk := func(coldStart bool) (*heap.Context, error) {
		cfg := heap.TestContextConfig()
		cfg.Bootstrap.ColdStart = coldStart
		return heap.NewContext(cfg)
	}
	primary, err := mk(false)
	if err != nil {
		return err
	}
	v := make([]complex128, primary.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	ct := primary.Client.EncryptAtLevel(v, 1)
	reference := primary.Boot.Bootstrap(ct.CopyNew())
	check := func(tag string, out *rlwe.Ciphertext) error {
		for i := 0; i < out.Level(); i++ {
			for j, c := range out.C0.Limbs[i] {
				if c != reference.C0.Limbs[i][j] || out.C1.Limbs[i][j] != reference.C1.Limbs[i][j] {
					return fmt.Errorf("%s: limb %d coeff %d differs from local bootstrap", tag, i, j)
				}
			}
		}
		fmt.Printf("%s: bit-identical to the local bootstrap\n", tag)
		return nil
	}
	met := obs.NewMetrics()
	primary.Boot.SetRecorder(met)
	defer primary.Boot.SetRecorder(nil)
	pri := &cluster.Primary{Boot: primary.Boot}

	// Act 1: a wedged node and hedged dispatch.
	fmt.Println("--- act 1: hedged dispatch around a stalled node ---")
	wedged, err := mk(false)
	if err != nil {
		return err
	}
	cp, cs := net.Pipe()
	stall := cluster.NewFaultConn(cs, cluster.FaultPlan{Seed: 3, StallWriteAfter: 48})
	servWedged := make(chan error, 1)
	go func() { servWedged <- (&cluster.Secondary{Boot: wedged.Boot}).Serve(stall) }()
	hopts := cluster.DefaultOptions()
	hopts.HedgeAfter = 150 * time.Millisecond
	out, stats, err := pri.BootstrapCluster(context.Background(), ct.CopyNew(),
		[]*cluster.Node{{Conn: cp, Name: "fpga-wedged"}}, hopts)
	if err != nil {
		return err
	}
	fmt.Printf("%d of %d indices hedged away from the stalled node (%d hedge-race losers)\n%s",
		stats.Hedged, stats.Total, stats.HedgeWasted, stats)
	if err := check("hedged run", out); err != nil {
		return err
	}
	_ = stall.Close()
	_ = cp.Close()
	_ = cs.Close()
	<-servWedged

	// Act 2: elastic membership — a warm node and a cold node join, the cold
	// node's link is cut mid-key-upload.
	fmt.Println("--- act 2: cold join, link cut mid-key-upload ---")
	m := cluster.NewMembership()
	l := cluster.NewPipeListener()
	acceptDone := make(chan struct{})
	go func() { _ = pri.AcceptJoins(m, l); close(acceptDone) }()
	waitState := func(name string, want cluster.MemberState) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, ok := m.State(name); ok && st == want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %q never became %v", name, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	closeRW := func(conn io.ReadWriter) {
		if c, ok := conn.(io.Closer); ok {
			_ = c.Close()
		}
	}

	warm, err := mk(false)
	if err != nil {
		return err
	}
	warmConn, err := l.Dial()
	if err != nil {
		return err
	}
	servWarm := make(chan error, 1)
	go func() { servWarm <- (&cluster.Secondary{Boot: warm.Boot}).JoinAndServe(warmConn, "fpga-warm") }()

	cold, err := mk(true)
	if err != nil {
		return err
	}
	coldMet := obs.NewMetrics()
	cold.Boot.SetRecorder(coldMet)
	coldSec := &cluster.Secondary{Boot: cold.Boot}
	const chunkBytes = 64 << 10
	blobSize := tfhe.BRKBlobBytes(primary.Params.Parameters, primary.Params.N())
	conn1, err := l.Dial()
	if err != nil {
		return err
	}
	cut := cluster.NewFaultConn(conn1, cluster.FaultPlan{Seed: 13, CutReadAfter: 3*chunkBytes + 4096})
	servCold1 := make(chan error, 1)
	go func() { servCold1 <- coldSec.JoinAndServe(cut, "fpga-cold") }()
	if err := waitState("fpga-warm", cluster.MemberActive); err != nil {
		return err
	}
	if err := waitState("fpga-cold", cluster.MemberActive); err != nil {
		return err
	}

	eopts := cluster.DefaultOptions()
	eopts.LocalWorkers = 1
	eopts.ProbeInterval = 25 * time.Millisecond
	eopts.ProbeTimeout = time.Second
	eopts.KeyChunkBytes = chunkBytes
	out, stats, err = pri.BootstrapElastic(context.Background(), ct.CopyNew(), m, eopts)
	if err != nil {
		return err
	}
	if err := <-servCold1; err == nil {
		return fmt.Errorf("the injected link cut never fired")
	}
	_ = cut.Close()
	if err := waitState("fpga-cold", cluster.MemberDead); err != nil {
		return err
	}
	fmt.Printf("link cut after %d unique chunks (%d of %d key bytes received); member marked dead\n%s",
		coldMet.Counter(obs.CounterKeyChunks), coldMet.Counter(obs.CounterKeyChunkBytes), blobSize, stats)
	if err := check("churn run", out); err != nil {
		return err
	}

	// Act 3: the dead node rejoins under the same name and the upload resumes
	// from the last acked chunk; a third node joins mid-run with a pending
	// leave request and is drained without completing work.
	fmt.Println("--- act 3: rejoin + resumed upload, graceful drain ---")
	conn2, err := l.Dial()
	if err != nil {
		return err
	}
	servCold2 := make(chan error, 1)
	go func() { servCold2 <- coldSec.JoinAndServe(conn2, "fpga-cold") }()
	leaverCtx, err := mk(false)
	if err != nil {
		return err
	}
	leaver := &cluster.Secondary{Boot: leaverCtx.Boot}
	leaver.RequestLeave()
	lconn, err := l.Dial()
	if err != nil {
		return err
	}
	servLeaver := make(chan error, 1)
	go func() { servLeaver <- leaver.JoinAndServe(lconn, "fpga-leaver") }()
	if err := waitState("fpga-cold", cluster.MemberActive); err != nil {
		return err
	}
	if err := waitState("fpga-leaver", cluster.MemberActive); err != nil {
		return err
	}
	out, stats, err = pri.BootstrapElastic(context.Background(), ct.CopyNew(), m, eopts)
	if err != nil {
		return err
	}
	fmt.Print(stats)
	if err := check("resume run", out); err != nil {
		return err
	}

	// The resume accounting: across both connections every unique chunk was
	// received exactly once; stop-and-wait leaves at most one chunk of
	// sender-side overlap.
	uniq := coldMet.Counter(obs.CounterKeyChunks)
	uniqBytes := coldMet.Counter(obs.CounterKeyChunkBytes)
	resent := met.Counter(obs.CounterKeyChunkResent)
	fmt.Printf("key streaming: %d unique chunks, %d of %d bytes (%.0f%% warm), %d bytes re-sent across the kill\n",
		uniq, uniqBytes, blobSize, 100*float64(uniqBytes)/float64(blobSize), resent)
	if uniqBytes == uint64(blobSize) && resent <= chunkBytes {
		fmt.Println("resume OK: the kill cost at most one in-flight chunk, no full re-send")
	}
	for _, name := range []string{"fpga-warm", "fpga-cold", "fpga-leaver"} {
		st, _ := m.State(name)
		fmt.Printf("  member %-12s %v\n", name, st)
	}

	closeRW(lconn)
	closeRW(conn2)
	closeRW(warmConn)
	<-servCold2
	<-servLeaver
	<-servWarm
	_ = l.Close()
	<-acceptDone
	return nil
}

// runCluster runs the parallelized bootstrap (§V) across three in-process
// nodes connected by byte pipes, with one link deliberately cut mid-stream
// to exercise the retry/reassignment path, and checks the result against a
// purely local bootstrap of the same ciphertext (they must be bit-identical,
// since blind rotations are deterministic and node-placement-independent).
// With a non-empty tracePath the distributed run is recorded by the
// observability layer: one timeline lane per node and local worker.
func runCluster(tracePath string) error {
	mk := func() (*heap.Context, error) { return heap.NewContext(heap.TestContextConfig()) }
	primary, err := mk()
	if err != nil {
		return err
	}
	v := make([]complex128, primary.Params.Slots)
	for i := range v {
		v[i] = complex(0.4, 0)
	}
	// Bootstrap is deterministic in the input ciphertext, so the same ct
	// bootstrapped locally and across the cluster must agree bit for bit.
	ct := primary.Client.EncryptAtLevel(v, 1)
	reference := primary.Boot.Bootstrap(ct)

	nodes := make([]*cluster.Node, 2)
	for i := range nodes {
		sec, err := mk()
		if err != nil {
			return err
		}
		local, remote := net.Pipe()
		go func() { _ = (&cluster.Secondary{Boot: sec.Boot}).Serve(remote) }()
		nodes[i] = &cluster.Node{Conn: local, Name: fmt.Sprintf("fpga-%d", i)}
	}
	// Cut node 0's link after 8 KiB of accumulator traffic: its remaining
	// LWE indices are reassigned to node 1 and the primary's local workers.
	nodes[0].Conn = cluster.NewFaultConn(nodes[0].Conn, cluster.FaultPlan{Seed: 42, CutReadAfter: 8 << 10})

	var (
		met    *obs.Metrics
		tracer *obs.Tracer
	)
	if tracePath != "" {
		met, tracer = obs.NewMetrics(), obs.NewTracer()
		primary.Boot.SetRecorder(obs.Combine(met, tracer))
	}
	start := time.Now()
	out, stats, err := (&cluster.Primary{Boot: primary.Boot}).BootstrapCluster(
		context.Background(), ct, nodes, cluster.DefaultOptions())
	wall := time.Since(start)
	if tracePath != "" {
		primary.Boot.SetRecorder(nil)
	}
	if err != nil {
		return err
	}
	fmt.Printf("distributed bootstrap with one link cut mid-stream: %v\n%s",
		wall.Round(time.Millisecond), stats)
	if tracePath != "" {
		if err := writeTraceAndSnapshot(tracePath, tracer, met, wall); err != nil {
			return err
		}
	}

	for i := 0; i < out.Level(); i++ {
		for j, c := range out.C0.Limbs[i] {
			if c != reference.C0.Limbs[i][j] || out.C1.Limbs[i][j] != reference.C1.Limbs[i][j] {
				return fmt.Errorf("limb %d coeff %d differs from local bootstrap", i, j)
			}
		}
	}
	fmt.Printf("result bit-identical to local bootstrap; slot0 = %.3f (want 0.400)\n",
		real(primary.Decrypt(out)[0]))
	return nil
}
