package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"heap/internal/ckks"
	"heap/internal/cluster"
	"heap/internal/core"
	"heap/internal/obs"
	"heap/internal/ring"
	"heap/internal/rlwe"
	"heap/internal/serve"
	"heap/internal/tfhe"
)

// The serving ring is the one of the committed load matrix: N=64, three
// 30-bit limbs plus two 31-bit auxiliary limbs, exact mode. A job is the
// blind-rotation middle of one sparse bootstrap: serveRots rotations (two
// slots), prepared and finished by the tenant.
const (
	serveLogN = 6
	serveRots = 4
	servePool = 8 // distinct seeded payloads per tenant

	// latencyLimit is the latency within which a served job counts as
	// goodput.
	latencyLimit = 250 * time.Millisecond
)

// serveShape is one serving workload. The server runs one batch executor
// with nproc batch workers.
type serveShape struct {
	tenants, conns        int           // tenants, connections per tenant
	rate                  float64       // offered jobs/s averaged over the run
	burstOn, burstOff     time.Duration // on/off arrival windows (0: plain Poisson)
	budget                time.Duration // per-job deadline budget (0: none)
	admitRate, admitBurst float64       // per-tenant admission token bucket (0: none)
	loadKeys              bool          // registry holds one key, filled by a Loader
}

// steadyShape: one tenant over two connections, open-loop Poisson at about
// half the closed-loop capacity, unbounded registry, no budget.
func steadyShape() serveShape {
	return serveShape{tenants: 1, conns: 2, rate: 17}
}

// churnShape: two tenants, one connection each; 100 ms bursts at 50 jobs/s,
// above capacity, then 150 ms of silence; a deadline budget per job, an
// admission rate per tenant below its offered rate, and a registry that
// holds one key, so each switch of tenant evicts one key and loads the
// other.
func churnShape() serveShape {
	return serveShape{
		tenants: 2, conns: 1,
		rate: 20, burstOn: 100 * time.Millisecond, burstOff: 150 * time.Millisecond,
		budget:    100 * time.Millisecond,
		admitRate: 8, admitBurst: 2,
		loadKeys: true,
	}
}

func serveParams(slots int) (*ckks.Parameters, error) {
	q := ring.GenerateNTTPrimes(30, serveLogN, 3)
	p := ring.GenerateNTTPrimesUp(31, serveLogN, 2)
	return ckks.NewParameters(serveLogN, q, p, ring.DefaultSigma, 2, float64(uint64(1)<<28), slots)
}

func serveBoot(params *ckks.Parameters, keySeed uint64, cold bool) (*core.Bootstrapper, *rlwe.SecretKey, error) {
	kg := rlwe.NewKeyGenerator(params.Parameters, keySeed)
	sk := kg.GenSecretKey(rlwe.SecretTernary)
	cfg := core.DefaultConfig()
	cfg.NT = 0
	cfg.Workers = 1
	cfg.ColdStart = cold
	bt, err := core.NewBootstrapper(params, kg, sk, cfg)
	return bt, sk, err
}

// tenant is one key holder with its connections and seeded payload pool:
// preps[i] is a prepared bootstrap of values[i], and refs[i] are the
// tenant's own BlindRotateOne outputs for its LWEs, which every served
// accumulator must equal bit for bit.
type tenant struct {
	name    string
	bt      *core.Bootstrapper
	cl      *ckks.Client
	blob    []byte // serialized blind-rotate key, for the churn Loader
	clients []*serve.Client
	preps   []*core.PreparedBootstrap
	values  [][]complex128
	refs    [][]*rlwe.Ciphertext
}

// keyLoads records the Loader's calls.
type keyLoads struct {
	mu  sync.Mutex
	dur []float64 // ms
}

func (k *keyLoads) add(d time.Duration) {
	k.mu.Lock()
	k.dur = append(k.dur, ms(d))
	k.mu.Unlock()
}

func (k *keyLoads) snapshot() []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]float64(nil), k.dur...)
}

// serveEnv is one built serving workload: a key-cold server on an in-memory
// listener and its tenants.
type serveEnv struct {
	sh      serveShape
	srv     *serve.Server
	lis     *cluster.PipeListener
	served  chan struct{}
	tenants []*tenant
	loads   *keyLoads
}

// newServeEnv starts the server, builds the tenants and their connections,
// uploads the keys through the chunked key stream (steady) or leaves them
// to the Loader (churn), and builds the payload pools and references.
func newServeEnv(sh serveShape, seed uint64) (*serveEnv, error) {
	params, err := serveParams(serveRots / 2)
	if err != nil {
		return nil, err
	}
	srvBt, _, err := serveBoot(params, 1000, true)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{sh: sh, lis: cluster.NewPipeListener(), served: make(chan struct{}), loads: &keyLoads{}}
	for t := 0; t < sh.tenants; t++ {
		tn, err := newTenant(params, t, seed)
		if err != nil {
			return nil, err
		}
		e.tenants = append(e.tenants, tn)
	}
	cfg := serve.Config{
		Admission: serve.AdmissionConfig{RatePerSec: sh.admitRate, Burst: sh.admitBurst},
		Workers:   runtime.NumCPU(),
	}
	if sh.loadKeys {
		blobs := make(map[string][]byte, len(e.tenants))
		for _, tn := range e.tenants {
			blobs[tn.name] = tn.blob
		}
		cfg.MaxKeyBytes = int64(e.tenants[0].bt.BlindRotateKey().SizeBytes())
		cfg.Loader = func(name string) (*tfhe.BlindRotateKey, error) {
			blob, ok := blobs[name]
			if !ok {
				return nil, fmt.Errorf("no key for tenant %q", name)
			}
			t0 := time.Now()
			k, err := tfhe.ReadBlindRotateKey(bytes.NewReader(blob), params.Parameters)
			e.loads.add(time.Since(t0))
			return k, err
		}
	}
	e.srv = serve.NewServer(srvBt, cfg)
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(e.lis)
	}()
	for _, tn := range e.tenants {
		for c := 0; c < sh.conns; c++ {
			conn, err := e.lis.Dial()
			if err != nil {
				e.close()
				return nil, err
			}
			cl, err := serve.NewClient(conn, tn.bt, tn.name, nil)
			if err != nil {
				e.close()
				return nil, err
			}
			tn.clients = append(tn.clients, cl)
		}
		if !sh.loadKeys {
			if err := tn.clients[0].UploadKey(0, time.Minute); err != nil {
				e.close()
				return nil, fmt.Errorf("%s key upload: %w", tn.name, err)
			}
		}
	}
	return e, nil
}

// newTenant generates tenant t's keys (fixed seed per tenant) and its
// payload pool: servePool sparse bootstraps of seeded messages, prepared
// locally, with the reference accumulators the service must reproduce.
func newTenant(params *ckks.Parameters, t int, seed uint64) (*tenant, error) {
	bt, sk, err := serveBoot(params, uint64(3000+t), false)
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if _, err := bt.BlindRotateKey().WriteTo(&blob); err != nil {
		return nil, err
	}
	tn := &tenant{
		name: fmt.Sprintf("tenant-%d", t),
		bt:   bt,
		cl:   ckks.NewClient(params, sk, seed*31+uint64(t)),
		blob: blob.Bytes(),
	}
	for i := 0; i < servePool; i++ {
		v := seededValues(seed*1000+uint64(t*servePool+i), params.Slots)
		prep := bt.PrepareSparse(tn.cl.EncryptAtLevel(v, 1), serveRots)
		refs := make([]*rlwe.Ciphertext, len(prep.LWEs))
		for j, lwe := range prep.LWEs {
			refs[j] = bt.BlindRotateOne(lwe)
		}
		tn.preps = append(tn.preps, prep)
		tn.values = append(tn.values, v)
		tn.refs = append(tn.refs, refs)
	}
	return tn, nil
}

// precision finishes every pool bootstrap from its reference accumulators
// and returns the worst precision in bits. A served job equals its
// references bit for bit, so this is the precision of every served
// bootstrap.
func (tn *tenant) precision() (float64, error) {
	worst := 0.0
	for i, prep := range tn.preps {
		accs := make([]*rlwe.Ciphertext, len(tn.refs[i]))
		for j, r := range tn.refs[i] {
			accs[j] = r.CopyNew()
		}
		out, err := tn.bt.Finish(prep, accs)
		if err != nil {
			return 0, err
		}
		bits, maxErr := precisionBits(tn.cl.Decrypt(out), tn.values[i])
		if bound := tn.bt.ExpectedSlotErrorBound(); !(maxErr <= bound) {
			return 0, fmt.Errorf("%s payload %d: largest slot error %.3g exceeds the bound %.3g", tn.name, i, maxErr, bound)
		}
		if i == 0 || bits < worst {
			worst = bits
		}
	}
	return worst, nil
}

// close shuts the clients, the listener and the server down and waits for
// the serving goroutine.
func (e *serveEnv) close() {
	for _, tn := range e.tenants {
		for _, cl := range tn.clients {
			_ = cl.Close()
		}
	}
	_ = e.lis.Close()
	<-e.served
	e.srv.Close()
}

// arrival is one scheduled job.
type arrival struct {
	at                    time.Duration
	tenant, conn, payload int
}

// schedule draws the run's arrivals from seed. The window is cut into
// periods (one second for plain Poisson, one on/off cycle when bursty);
// every period gets the same number of jobs, round(rate × period), placed
// at sorted uniform times inside its on-window — a Poisson process
// conditioned on its count per period. Fixing the count per period keeps
// the offered load the same from seed to seed.
// It also returns the span the arrivals cover, the goodput's time base.
func schedule(sh serveShape, window time.Duration, seed uint64) ([]arrival, time.Duration) {
	r := rand.New(rand.NewSource(int64(seed)))
	on, period := time.Second, time.Second
	if sh.burstOn > 0 {
		on, period = sh.burstOn, sh.burstOn+sh.burstOff
	}
	periods := int(window / period)
	if periods < 1 {
		periods = 1
	}
	perPeriod := int(sh.rate*period.Seconds() + 0.5)
	if perPeriod < 1 {
		perPeriod = 1
	}
	evs := make([]arrival, 0, periods*perPeriod)
	times := make([]time.Duration, perPeriod)
	for p := 0; p < periods; p++ {
		for i := range times {
			times[i] = time.Duration(p)*period + time.Duration(r.Int63n(int64(on)))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for _, at := range times {
			// Jobs take turns over the tenants and each tenant's
			// connections, so the seed moves only times and payloads.
			k := len(evs)
			evs = append(evs, arrival{at: at, tenant: k % sh.tenants, conn: k / sh.tenants % sh.conns, payload: r.Intn(servePool)})
		}
	}
	return evs, time.Duration(periods) * period
}

// outcome is one job's fate as the client saw it.
type outcome int

const (
	served  outcome = iota // every accumulator back and bit-exact
	refused                // rejected at the door or expired in the queue
	errored                // the call failed
	wrong                  // served, but an accumulator differs from its reference
)

// sample is one job's record. Times are offsets from the run's start.
type sample struct {
	due, sent, issued, done time.Duration
	result                  outcome
	err                     error
}

// drive runs the open-loop schedule: a dispatcher sends each arrival at its
// due time to its connection's worker, which issues Rotate and checks the
// reply. Worker queues hold the whole schedule, so a stalled connection
// never holds the dispatcher back.
func (e *serveEnv) drive(evs []arrival) []sample {
	samples := make([]sample, len(evs))
	queues := make([][]chan int, len(e.tenants))
	var wg sync.WaitGroup
	start := time.Now()
	for t, tn := range e.tenants {
		queues[t] = make([]chan int, len(tn.clients))
		for c, cl := range tn.clients {
			ch := make(chan int, len(evs))
			queues[t][c] = ch
			wg.Add(1)
			go func(tn *tenant, cl *serve.Client, ch chan int) {
				defer wg.Done()
				for i := range ch {
					ev, s := evs[i], &samples[i]
					s.issued = time.Since(start)
					accs, err := cl.Rotate(tn.preps[ev.payload].LWEs, e.sh.budget)
					s.done = time.Since(start)
					var rej *serve.RejectedError
					switch {
					case errors.As(err, &rej):
						s.result = refused
					case err != nil:
						s.result, s.err = errored, err
					default:
						s.result = served
						for k, acc := range accs {
							if !equalCiphertext(acc, tn.refs[ev.payload][k]) {
								s.result = wrong
								s.err = fmt.Errorf("%s payload %d accumulator %d differs from BlindRotateOne", tn.name, ev.payload, k)
								break
							}
						}
					}
				}
			}(tn, cl, ch)
		}
	}
	for i, ev := range evs {
		if d := ev.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].due = ev.at
		samples[i].sent = time.Since(start)
		queues[ev.tenant][ev.conn] <- i
	}
	for _, qs := range queues {
		for _, ch := range qs {
			close(ch)
		}
	}
	wg.Wait()
	return samples
}

// ledger is the server's job accounting read from its counters.
type ledger struct {
	admitted, served, expired, failed, rejected, batches, evicted, brkBytes, rotations, framed uint64
}

func readLedger(m *obs.Metrics) ledger {
	return ledger{
		admitted:  m.Counter(obs.CounterJobsAdmitted),
		served:    m.Counter(obs.CounterJobsServed),
		expired:   m.Counter(obs.CounterJobsExpired),
		failed:    m.Counter(obs.CounterJobsFailed),
		rejected:  m.Counter(obs.CounterJobsRejected),
		batches:   m.Counter(obs.CounterServeBatches),
		evicted:   m.Counter(obs.CounterKeysEvicted),
		brkBytes:  m.Counter(obs.CounterBRKBytesStreamed),
		rotations: m.Counter(obs.CounterBlindRotate),
		framed:    m.Counter(obs.CounterBytesFramed),
	}
}

func (a ledger) minus(b ledger) ledger {
	return ledger{
		a.admitted - b.admitted, a.served - b.served, a.expired - b.expired, a.failed - b.failed,
		a.rejected - b.rejected, a.batches - b.batches, a.evicted - b.evicted, a.brkBytes - b.brkBytes,
		a.rotations - b.rotations, a.framed - b.framed,
	}
}

// settle waits, bounded, until every admitted job reached a terminal state:
// the server credits a job just after writing the reply its client returns
// on, so the counters can trail the clients by a scheduler beat.
func settle(m *obs.Metrics) ledger {
	deadline := time.Now().Add(2 * time.Second)
	for {
		l := readLedger(m)
		if l.admitted == l.served+l.expired+l.failed || time.Now().After(deadline) {
			return l
		}
		time.Sleep(time.Millisecond)
	}
}

// setupServe builds the environment setupReps times (once when traced),
// each ending with one untimed warm-up job per tenant, and keeps the last.
func setupServe(o options, sh serveShape) (*serveEnv, []float64, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var env *serveEnv
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		var err error
		if env, err = newServeEnv(sh, o.seed); err != nil {
			return nil, nil, err
		}
		for _, tn := range env.tenants {
			if _, err := tn.clients[0].Rotate(tn.preps[0].LWEs, 0); err != nil {
				env.close()
				return nil, nil, fmt.Errorf("%s warm-up job: %w", tn.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return env, setups, nil
}

func runServe(o options, sh serveShape) (*report, error) {
	env, setups, err := setupServe(o, sh)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	precision := 0.0
	for i, tn := range env.tenants {
		bits, err := tn.precision()
		if err != nil {
			rep.fail("%v", err)
		}
		if i == 0 || bits < precision {
			precision = bits
		}
	}

	met := env.srv.Metrics()
	before := settle(met)
	loadsBefore := len(env.loads.snapshot())
	evs, _ := schedule(sh, o.window, o.seed)

	var depthMax int
	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(samplerDone)
		if !o.trace {
			return
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if d := env.srv.QueueDepth(); d > depthMax {
					depthMax = d
				}
			}
		}
	}()
	driveStart := time.Now()
	samples := env.drive(evs)
	elapsed := time.Since(driveStart)
	close(stopSampler)
	<-samplerDone
	after := settle(met)
	delta := after.minus(before)
	if after.admitted != after.served+after.expired+after.failed {
		rep.fail("server ledger does not balance at quiesce: admitted %d, served %d + expired %d + failed %d",
			after.admitted, after.served, after.expired, after.failed)
	}

	var lat, svc, wait, late []float64
	good, ok := 0, 0
	for _, s := range samples {
		rep.attempted++
		late = append(late, ms(s.sent-s.due))
		switch s.result {
		case errored, wrong:
			rep.failed++
			rep.fail("%v", s.err)
			continue
		case refused:
			continue
		}
		ok++
		l := s.done - s.due
		lat = append(lat, ms(l))
		svc = append(svc, ms(s.done-s.issued))
		wait = append(wait, ms(s.issued-s.due))
		if l <= latencyLimit {
			good++
		}
	}
	if uint64(ok) != delta.served {
		rep.fail("clients received %d jobs, the server counted %d served", ok, delta.served)
	}
	if len(lat) == 0 {
		rep.fail("no job was served")
	}
	if !o.trace {
		rep.endToEnd(setups, lat, good, elapsed, rep.attempted, ok, precision)
		return rep, nil
	}

	// Traced run: the serving layer from the same measured section, then a
	// split local bootstrap and the kernels at the serving ring on a tenant.
	tn := env.tenants[0]
	n := len(svc)
	rep.set("serve.service_p50_ms", median(svc), "ms", n)
	rep.set("serve.service_p95_ms", percentile(svc, 0.95), "ms", n)
	rep.set("serve.client_wait_p50_ms", median(wait), "ms", n)
	rep.set("serve.jobs_per_batch", ratio(delta.admitted, delta.batches), "jobs", int(delta.batches))
	rep.set("serve.queue_depth_max", float64(depthMax), "jobs", 1)
	rep.set("serve.rejected", float64(delta.rejected), "jobs", 1)
	rep.set("serve.expired", float64(delta.expired), "jobs", 1)
	rep.set("serve.failed", float64(delta.failed), "jobs", 1)
	rep.set("serve.keys_evicted", float64(delta.evicted), "keys", 1)
	loads := env.loads.snapshot()[loadsBefore:]
	rep.set("serve.key_loads", float64(len(loads)), "keys", 1)
	rep.set("serve.key_load_ms", median(loads), "ms", len(loads))
	rep.set("load.late_p99_ms", percentile(late, 0.99), "ms", len(late))
	rep.set("cluster.bytes_framed", ratio(delta.framed, delta.served), "bytes", int(delta.served))

	var traced []stageTimes
	for i := 0; i < 5; i++ {
		tm := obs.NewMetrics()
		tn.bt.SetRecorder(tm)
		ct := tn.cl.EncryptAtLevel(tn.values[i%servePool], 1)
		_, s, err := timedBootstrap(tn.bt, ct, serveRots)
		tn.bt.SetRecorder(nil)
		if err != nil {
			return nil, err
		}
		st := stagesOf(s, tm)
		checkTraced(rep, st, serveRots, 0)
		traced = append(traced, st)
	}
	setStageMetrics(rep, traced, nil)
	// The service's key traffic per rotation, not the local bootstrap's.
	rep.set("tfhe.brk_bytes_per_rot", ratio(delta.brkBytes, delta.rotations), "bytes", int(delta.rotations))
	measureKernels(tn.bt, tn.preps[0].LWEs, runtime.NumCPU()).set(rep)
	rep.set("serve.overhead_ms", rep.metrics["serve.service_p50_ms"].Value-rep.metrics["tfhe.batch_ms"].Value, "ms", n)
	return rep, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
