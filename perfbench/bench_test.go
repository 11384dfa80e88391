package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"testing"

	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/topology"
)

// tinyFabric and tinySparse are the simulator workloads at a size a
// unit test can afford: the same configuration shape, fewer nodes and
// cycles.
var (
	tinyFabric = simCase{
		name: "tiny-fabric", radix: 4, contexts: 2, compute: 20,
		warmup: 300, window: 600, step: 50,
		placements: fabricCongested.placements,
	}
	tinySparse = simCase{
		name: "tiny-sparse", radix: 8, contexts: 1, compute: 400, stagger: true,
		warmup: 400, window: 800, step: 25, gain: true,
		placements: sparseLarge.placements,
	}
)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to the workloads
// and metrics the program reports, names and units alike.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], program reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSummaryReportsEveryMetric checks the result line carries exactly
// the metric set of its mode, with units, and that a non-finite value
// is a failed check rather than a silent number.
func TestSummaryReportsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := newRun("served-mix", 1, 1, trace)
		r.record("window", nil)
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		sum := r.summarize()
		if len(sum.Metrics) != len(defs) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(sum.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := sum.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
		if !sum.Correct || sum.Attempted != 1 {
			t.Errorf("trace=%v: clean run summarized as %+v", trace, sum)
		}
	}
	r := newRun("served-mix", 1, 1, false)
	r.record("window", nil)
	r.metrics["work_per_s"] = 0 * 1 / zero()
	if sum := r.summarize(); sum.Correct || sum.Failed != 1 {
		t.Errorf("NaN metric summarized as %+v", sum)
	}
}

func zero() float64 { return 0 }

// TestTracedAssemblyParity is the guarantee behind the per-layer
// numbers: the traced assembly runs the same program as machine.New,
// so its window metrics equal Machine.Execute's bit for bit, on both
// simulator workloads' configurations.
func TestTracedAssemblyParity(t *testing.T) {
	ctx := context.Background()
	for _, c := range []simCase{tinyFabric, tinySparse} {
		want, err := passMetrics(ctx, c, 3)
		if err != nil {
			t.Fatal(err)
		}
		tor, _ := c.torus()
		tr := newTracer()
		r := newRun(c.name, 3, 0, true)
		for i, m := range c.placements(tor, 3) {
			tm, err := newTraced(c, tor, m, tr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runPass(ctx, r, c, tm, "traced window")
			if err != nil {
				t.Fatal(err)
			}
			if !metricsEqual(res.metrics, want[i]) {
				t.Errorf("%s %s: traced %+v, Machine.Execute %+v", c.name, m.Name, res.metrics, want[i])
			}
			if err := tm.check(); err != nil {
				t.Errorf("%s %s: %v", c.name, m.Name, err)
			}
		}
		for k, ns := range tr.self {
			if ns <= 0 {
				t.Errorf("%s: span kind %d accumulated no self time", c.name, k)
			}
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", c.name, len(tr.stack))
		}
	}
}

// TestRunSimTraced runs the whole traced simulator path on the tiny
// gain case: parity, conservation, pinned-free checks and the gap all
// pass, and the layer metrics are populated.
func TestRunSimTraced(t *testing.T) {
	r := newRun("tiny", 5, 0.01, true)
	if err := runSim(context.Background(), r, tinySparse); err != nil {
		t.Fatal(err)
	}
	if _, failed := r.totals(); failed != 0 {
		t.Fatalf("failures: %v", r.failures)
	}
	for _, name := range []string{"work_per_s", "latency_p90_us", "setup_s", "netsim.step_ns_per_pcycle",
		"procsim.tick_ns_per_pcycle", "cohsim.transactions", "model_gap_pct", "trace.traced_pcycles_per_s"} {
		if r.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.metrics[name])
		}
	}
}

// TestSimChecksFire corrupts pass results and expects each simulator
// check to count a failure.
func TestSimChecksFire(t *testing.T) {
	ref, ok, err := pinned(fabricCongested.name, 1)
	if err != nil || !ok {
		t.Fatalf("reference.json: ok=%v err=%v", ok, err)
	}
	tor, _ := fabricCongested.torus()
	maps := fabricCongested.placements(tor, 1)
	good := []passResult{{metrics: ref[0]}}

	r := newRun(fabricCongested.name, 1, 0, false)
	checkPass(r, fabricCongested, tor, maps, good, ref, []error{nil})
	if _, failed := r.totals(); failed != 0 {
		t.Fatalf("pinned metrics failed their own check: %v", r.failures)
	}

	bad := ref[0]
	bad.Transactions++
	r = newRun(fabricCongested.name, 1, 0, false)
	checkPass(r, fabricCongested, tor, maps, []passResult{{metrics: bad}}, ref, []error{errConserve})
	// pinned, deterministic and conservation checks all fail.
	if _, failed := r.totals(); failed != 3 {
		t.Errorf("corrupted pass: %d failures, want 3: %v", failed, r.failures)
	}

	// The model gap check fires when the measured gain strays.
	stor, _ := tinySparse.torus()
	smaps := tinySparse.placements(stor, 1)
	ideal := machine.Metrics{InterTxnTime: 100}
	far := machine.Metrics{InterTxnTime: 150}
	r = newRun("tiny", 2, 0, false)
	first := []machine.Metrics{ideal, far}
	checkPass(r, tinySparse, stor, smaps, []passResult{{metrics: ideal}, {metrics: far}}, first, []error{nil, nil})
	if _, failed := r.totals(); failed != 1 || r.metrics["model_gap_pct"] < modelGapTolerancePct {
		t.Errorf("gain 1.5 against the model: %d failures, gap %.2f%%", failed, r.metrics["model_gap_pct"])
	}
}

var errConserve = errors.New("flit conservation violated")

// TestMixVerification checks served-mix's answer check against core,
// and that a corrupted or failed response is caught.
func TestMixVerification(t *testing.T) {
	for i := int64(0); i < 40; i++ {
		req := mixRequestAt(7, i)
		want, err := expectedMix(req)
		if err != nil {
			t.Fatal(err)
		}
		var body []byte
		switch req.class {
		case "solve":
			body = []byte(`{"solution":` + string(want) + `}`)
		case "gain":
			body = want
		default:
			body = []byte(`{"sensitivity":` + string(want) + `}`)
		}
		if err := verifyMix(req, http.StatusOK, body); err != nil {
			t.Fatalf("request %d (%s): correct body rejected: %v", i, req.class, err)
		}
		corrupt := bytes.Replace(body, []byte("."), []byte("9."), 1)
		if err := verifyMix(req, http.StatusOK, corrupt); err == nil {
			t.Errorf("request %d (%s): corrupted body %s accepted", i, req.class, corrupt)
		}
		if err := verifyMix(req, http.StatusBadRequest, body); err == nil {
			t.Errorf("request %d: HTTP 400 accepted", i)
		}
	}
}

// TestSweepCheck requires the sweep stream to match the in-process
// reference byte for byte.
func TestSweepCheck(t *testing.T) {
	spec := sweepSpec(1)
	spec.Contexts, spec.Mappings, spec.Window = []int{1}, "identity,random:1", 100
	want, cells, err := expectedSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cell times, want 2", len(cells))
	}
	if err := checkSweep(want, want); err != nil {
		t.Error(err)
	}
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)-2] ^= 1
	if checkSweep(corrupt, want) == nil {
		t.Error("a one-bit difference passed the sweep check")
	}
}

// TestSeedPlumbing checks that inputs are a function of the seed: the
// same seed gives the same inputs, another seed other inputs.
func TestSeedPlumbing(t *testing.T) {
	same, other := 0, 0
	for i := int64(0); i < 200; i++ {
		a, b, c := mixRequestAt(1, i), mixRequestAt(1, i), mixRequestAt(2, i)
		if !bytes.Equal(a.body, b.body) || a.class != b.class {
			t.Fatalf("request %d differs between two calls with one seed", i)
		}
		if bytes.Equal(a.body, c.body) {
			same++
		} else {
			other++
		}
	}
	if other < 150 {
		t.Errorf("seeds 1 and 2 share %d of 200 requests", same)
	}
	tor, _ := topology.New(16, 2)
	p1, p1again, p2 := fabricCongested.placements(tor, 1), fabricCongested.placements(tor, 1), fabricCongested.placements(tor, 2)
	if !samePlacement(p1[0], p1again[0]) || samePlacement(p1[0], p2[0]) {
		t.Error("fabric-congested placement is not a function of the seed")
	}
	if a, b := sweepSpec(1), sweepSpec(2); a.Mappings == b.Mappings {
		t.Error("served-sweep grid does not depend on the seed")
	}
}

func samePlacement(a, b *mapping.Mapping) bool {
	if len(a.Place) != len(b.Place) {
		return false
	}
	for i := range a.Place {
		if a.Place[i] != b.Place[i] {
			return false
		}
	}
	return true
}

// TestServedMixShort runs served-mix end to end for a fraction of a
// second: every response verifies and both phases produce metrics.
func TestServedMixShort(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and generates load")
	}
	r := newRun("served-mix", 3, 0.5, true)
	if err := runServedMix(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if _, failed := r.totals(); failed != 0 {
		t.Fatalf("failures: %v", r.failures)
	}
	for _, name := range []string{"work_per_s", "latency_p50_us", "setup_s", "serve.class.solve.p50_us", "core.solve_us"} {
		if r.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.metrics[name])
		}
	}
}
