package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"heap/internal/obs"
)

// TestBootCountersExactAndAttributed runs two traced boot bootstraps: every
// counter must repeat exactly, the external products must number n_br·n_t
// and the merges n_br−1, and the three core calls must sum to the wall time
// within 5%.
func TestBootCountersExactAndAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-ring bootstraps take seconds")
	}
	env, err := newBootEnv(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var runs []stageTimes
	for i := 0; i < 2; i++ {
		met := obs.NewMetrics()
		env.bt.SetRecorder(met)
		_, s, err := env.bootstrap()
		env.bt.SetRecorder(nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, stagesOf(s, met))
	}
	if runs[0].counters != runs[1].counters {
		t.Errorf("counters differ between repetitions:\n%v\n%v", runs[0].counters, runs[1].counters)
	}
	st := runs[1]
	if got, want := st.counters[obs.CounterExternalProduct], uint64(bootCount*bootNT); got != want {
		t.Errorf("external products = %d, want n_br·n_t = %d", got, want)
	}
	if got, want := st.counters[obs.CounterMerge], uint64(bootCount-1); got != want {
		t.Errorf("merges = %d, want n_br−1 = %d", got, want)
	}
	sum := st.prepare + st.rotate + st.finish
	if d := st.wall - sum; d < 0 || d > 0.05*st.wall {
		t.Errorf("core calls sum to %.3f ms of a %.3f ms bootstrap", sum, st.wall)
	}
	rep := newReport()
	checkTraced(rep, st, bootCount, bootCount*bootNT)
	if !rep.correct {
		t.Errorf("traced-run checks failed: %v", rep.problems)
	}
}

// TestClusterRotationsAddUp checks that a distributed bootstrap runs every
// one of the N rotations exactly once, remotely or locally, merges N−1
// times, and equals the local bootstrap.
func TestClusterRotationsAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("a distributed bootstrap takes seconds")
	}
	env, err := newClusterEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	met, secMet := obs.NewMetrics(), obs.NewMetrics()
	env.setRecorders(met, secMet)
	out, stats, d, err := env.bootstrap()
	env.setRecorders(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := clusterTraceOf(d, met, secMet, stats)
	n := env.primary.Params.N()
	if tr.remote+stats.Local != n || tr.total != n {
		t.Errorf("%d remote + %d local rotations of %d, want N = %d", tr.remote, stats.Local, tr.total, n)
	}
	if got := tr.stages.counters[obs.CounterMerge]; got != uint64(n-1) {
		t.Errorf("merges = %d, want N−1 = %d", got, n-1)
	}
	if got := tr.stages.counters[obs.CounterBlindRotate]; got != uint64(n) {
		t.Errorf("blind rotations counted = %d, want N = %d", got, n)
	}
	if ref := env.primary.Boot.Bootstrap(env.ct.CopyNew()); !equalCiphertext(out, ref) {
		t.Error("distributed bootstrap differs from the local bootstrap")
	}
}

// TestScheduleSeeded pins the open-loop generator: the same seed gives the
// same schedule and payloads, another seed another schedule of the same
// size.
func TestScheduleSeeded(t *testing.T) {
	for _, sh := range []serveShape{steadyShape(), churnShape()} {
		a, spanA := schedule(sh, 10*time.Second, 1)
		b, _ := schedule(sh, 10*time.Second, 1)
		c, spanC := schedule(sh, 10*time.Second, 2)
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed, different schedules")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds, same schedule")
		}
		if len(a) != len(c) || spanA != spanC {
			t.Errorf("job counts %d and %d (spans %v, %v), want equal", len(a), len(c), spanA, spanC)
		}
		if want := int(sh.rate*spanA.Seconds() + 0.5); len(a) != want {
			t.Errorf("%d jobs over %v, want rate × span = %d", len(a), spanA, want)
		}
		for i := 1; i < len(a); i++ {
			if a[i].at < a[i-1].at || a[i].at >= spanA {
				t.Fatalf("arrival %d at %v is out of order or outside the %v span", i, a[i].at, spanA)
			}
		}
	}

	params, err := serveParams(serveRots / 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := newTenant(params, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := newTenant(params, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := newTenant(params, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.preps[3].LWEs, t2.preps[3].LWEs) || !equalCiphertext(t1.refs[3][1], t2.refs[3][1]) {
		t.Error("same seed, different payloads")
	}
	if reflect.DeepEqual(t1.preps[3].LWEs, t3.preps[3].LWEs) {
		t.Error("different seeds, same payloads")
	}
}

// TestResultContract runs serve-steady briefly, untraced and traced, and
// checks the last output line: exactly the four keys, and every metric of
// BENCHMARK.json with its unit.
func TestResultContract(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "serve-steady", "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: result keys %v", trace, keys)
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace %s: run not correct: %s", trace, errOut.String())
		}
		var metrics map[string]metric
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			got, ok := metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(append([]float64(nil), xs...)); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if p := percentile(append([]float64(nil), xs...), 0.95); p != 5 {
		t.Errorf("p95 of five = %v, want the maximum", p)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if p := percentile(hundred, 0.95); p != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", p)
	}
}
