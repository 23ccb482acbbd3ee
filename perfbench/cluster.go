package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"heap"
	"heap/internal/cluster"
	"heap/internal/obs"
	"heap/internal/rlwe"
)

// clusterNodes is the number of in-process secondaries of boot-cluster.
const clusterNodes = 2

// clusterEnv is one built boot-cluster workload: the primary's context, the
// secondaries (one worker each), the input ciphertext and the local
// bootstrap every distributed output must equal.
type clusterEnv struct {
	primary *heap.Context
	secs    []*cluster.Secondary
	ct      *rlwe.Ciphertext
	want    []complex128
}

// newClusterEnv builds the primary and secondaries at heapd's test scale
// (N=128, exact mode, dense n_br=128). Keys come from the config's fixed
// seed; the message follows the run's seed.
func newClusterEnv(seed uint64) (*clusterEnv, error) {
	mk := func(workers int) (*heap.Context, error) {
		cfg := heap.TestContextConfig()
		cfg.Bootstrap.Workers = workers
		return heap.NewContext(cfg)
	}
	primary, err := mk(runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{primary: primary}
	for i := 0; i < clusterNodes; i++ {
		sec, err := mk(1)
		if err != nil {
			return nil, err
		}
		e.secs = append(e.secs, &cluster.Secondary{Boot: sec.Boot})
	}
	e.want = seededValues(seed, primary.Params.Slots)
	e.ct = primary.Client.EncryptAtLevel(e.want, 1)
	return e, nil
}

// bootstrap runs one distributed bootstrap over fresh net.Pipe links to the
// secondaries and waits for every secondary to finish serving.
func (e *clusterEnv) bootstrap() (*rlwe.Ciphertext, *cluster.Stats, time.Duration, error) {
	nodes := make([]*cluster.Node, len(e.secs))
	var wg sync.WaitGroup
	for i, sec := range e.secs {
		local, remote := net.Pipe()
		wg.Add(1)
		go func(sec *cluster.Secondary, conn net.Conn) {
			defer wg.Done()
			_ = sec.Serve(conn) // ends with EOF when the primary closes its side
			conn.Close()
		}(sec, remote)
		nodes[i] = &cluster.Node{Conn: local, Name: fmt.Sprintf("node-%d", i)}
	}
	ct := e.ct.CopyNew()
	t0 := time.Now()
	out, stats, err := (&cluster.Primary{Boot: e.primary.Boot}).BootstrapCluster(
		context.Background(), ct, nodes, cluster.DefaultOptions())
	d := time.Since(t0)
	for _, n := range nodes {
		n.Conn.(net.Conn).Close()
	}
	wg.Wait()
	if err == nil {
		err = stats.NodeErrors()
	}
	return out, stats, d, err
}

func (e *clusterEnv) check(out *rlwe.Ciphertext) (float64, error) {
	bits, maxErr := precisionBits(e.primary.Decrypt(out), e.want)
	if bound := e.primary.Boot.ExpectedSlotErrorBound(); !(maxErr <= bound) {
		return bits, fmt.Errorf("largest slot error %.3g exceeds the bound %.3g", maxErr, bound)
	}
	return bits, nil
}

// setupCluster builds the environment setupReps times (once when traced),
// each ending with one untimed warm-up distributed bootstrap, and keeps the
// last. The local reference bootstrap is an output check, not set-up, so it
// runs after the set-up clock stops.
func setupCluster(o options) (*clusterEnv, *rlwe.Ciphertext, *rlwe.Ciphertext, []float64, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var (
		env    *clusterEnv
		warm   *rlwe.Ciphertext
		setups []float64
	)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		env = nil
		runtime.GC()
		var err error
		if env, err = newClusterEnv(o.seed); err != nil {
			return nil, nil, nil, nil, err
		}
		if warm, _, _, err = env.bootstrap(); err != nil {
			return nil, nil, nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref := env.primary.Boot.Bootstrap(env.ct.CopyNew())
	return env, warm, ref, setups, nil
}

func runBootCluster(o options) (*report, error) {
	env, warm, ref, setups, err := setupCluster(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if !equalCiphertext(warm, ref) {
		rep.fail("warm-up distributed bootstrap differs from the local bootstrap")
	}
	precision, err := env.check(ref)
	if err != nil {
		rep.fail("local reference bootstrap: %v", err)
	}
	if o.trace {
		return rep, traceCluster(o, env, ref, rep)
	}

	var lat []float64
	ok := 0
	start := time.Now()
	for rep.attempted == 0 || time.Since(start) < o.window {
		out, _, d, err := env.bootstrap()
		rep.attempted++
		if err != nil || !equalCiphertext(out, ref) {
			rep.failed++
			rep.fail("distributed bootstrap %d: differs from the local bootstrap (err %v)", rep.attempted, err)
			continue
		}
		ok++
		lat = append(lat, ms(d))
	}
	rep.endToEnd(setups, lat, ok, time.Since(start), rep.attempted, ok, precision)
	return rep, nil
}

// clusterTrace is one traced distributed bootstrap.
type clusterTrace struct {
	stages          stageTimes
	netSend, netRcv float64 // ms summed over the bootstrap's batches
	remote, total   int
	retries         int
}

// traceCluster alternates untraced and traced distributed bootstraps for
// the run's window (at least two of each), then times the kernels at the
// cluster ring on the primary. The primary's recorder sees the pipeline
// spans; the secondaries share a second recorder so the kernel counters
// cover every node.
func traceCluster(o options, env *clusterEnv, ref *rlwe.Ciphertext, rep *report) error {
	var plain []float64
	var traced []clusterTrace
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.window; i++ {
		out, _, d, err := env.bootstrap()
		rep.attempted++
		if err != nil || !equalCiphertext(out, ref) {
			rep.failed++
			rep.fail("untraced distributed bootstrap %d: wrong output (err %v)", rep.attempted, err)
		}
		plain = append(plain, ms(d))

		met, secMet := obs.NewMetrics(), obs.NewMetrics()
		env.setRecorders(met, secMet)
		out, stats, d, err := env.bootstrap()
		env.setRecorders(nil, nil)
		rep.attempted++
		if err != nil || !equalCiphertext(out, ref) {
			rep.failed++
			rep.fail("traced distributed bootstrap %d: wrong output (err %v)", rep.attempted, err)
			continue
		}
		t := clusterTraceOf(d, met, secMet, stats)
		checkTraced(rep, t.stages, env.primary.Params.N(), 0)
		if t.remote+stats.Local != t.total {
			rep.fail("%d remote + %d local rotations, want N = %d", t.remote, stats.Local, t.total)
		}
		traced = append(traced, t)
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced distributed bootstrap succeeded")
	}
	stages := make([]stageTimes, len(traced))
	col := func(f func(clusterTrace) float64) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	for i, t := range traced {
		stages[i] = t.stages
	}
	setStageMetrics(rep, stages, plain)
	n := len(traced)
	rep.set("cluster.bytes_framed", col(func(t clusterTrace) float64 {
		return float64(t.stages.counters[obs.CounterBytesFramed])
	}), "bytes", n)
	rep.set("cluster.netsend_ms", col(func(t clusterTrace) float64 { return t.netSend }), "ms", n)
	rep.set("cluster.netrecv_ms", col(func(t clusterTrace) float64 { return t.netRcv }), "ms", n)
	rep.set("cluster.remote_share", col(func(t clusterTrace) float64 { return float64(t.remote) / float64(t.total) }), "fraction", n)
	rep.set("cluster.retries", col(func(t clusterTrace) float64 { return float64(t.retries) }), "count", n)

	prep := env.primary.Boot.PrepareSparse(env.ct, env.primary.Params.N())
	measureKernels(env.primary.Boot, prep.LWEs[:serveRots], runtime.NumCPU()).set(rep)
	return nil
}

func (e *clusterEnv) setRecorders(primary, secondaries obs.Recorder) {
	e.primary.Boot.SetRecorder(primary)
	for _, s := range e.secs {
		s.Boot.SetRecorder(secondaries)
	}
}

// clusterTraceOf attributes one traced distributed bootstrap. The pipeline
// stages map onto the three core calls: ModSwitch+Extract is Prepare,
// BlindRotate is the fan-out, Repack+Finish is Finish.
func clusterTraceOf(wall time.Duration, met, secMet *obs.Metrics, stats *cluster.Stats) clusterTrace {
	snap := met.Snapshot()
	pipe := func(s obs.Stage) float64 { return snap.Pipeline[s.String()].TotalMs }
	t := clusterTrace{
		stages: stageTimes{
			wall:    ms(wall),
			prepare: pipe(obs.StageModSwitch) + pipe(obs.StageExtract),
			rotate:  pipe(obs.StageBlindRotate),
			finish:  pipe(obs.StageRepack) + pipe(obs.StageFinish),
			repack:  pipe(obs.StageRepack),
			trace:   pipe(obs.StageFinish),
			spans:   met.PipelineTotalMs(),
		},
		netSend: snap.Shards[obs.StageNetSend.String()].TotalMs,
		netRcv:  snap.Shards[obs.StageNetRecv.String()].TotalMs,
		total:   stats.Total,
		retries: stats.Reassigned,
	}
	for c := 0; c < obs.NumCounters; c++ {
		t.stages.counters[c] = met.Counter(obs.Counter(c)) + secMet.Counter(obs.Counter(c))
	}
	// Both ends of a link count the frames they write and read; the
	// primary's count alone is the traffic of the bootstrap.
	t.stages.counters[obs.CounterBytesFramed] = met.Counter(obs.CounterBytesFramed)
	for _, ns := range stats.Nodes {
		t.remote += ns.Completed
		t.retries += ns.Retries
	}
	return t
}
