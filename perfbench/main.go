// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed wall-clock budget, checks the program's
// outputs, and prints as its last line a JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with
// -trace 1 they are the per-layer set (perLayer), measured by timing
// calls into each layer's public functions from this package. See
// README.md for the workloads, the metrics and how to read them.
//
//	go run . -workload fabric-congested -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with -trace 0. What one unit of "work" and one
// "operation" are depends on the workload (README.md).
var endToEnd = []metricDef{
	{"work_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Simulator host time, from spans around calls into each layer.
	{"sim.pcycles", "count"},
	{"netsim.step_ns_per_pcycle", "ns"},
	{"netsim.ns_per_flit_hop", "ns"},
	{"cohsim.ns_per_pcycle", "ns"},
	{"procsim.tick_ns_per_pcycle", "ns"},
	{"procsim.next_event_ns_per_pcycle", "ns"},
	{"sim.kernel_self_ns_per_pcycle", "ns"},
	{"sim.ns_per_executed_cycle", "ns"},
	{"go.allocs_per_pcycle", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.untraced_pcycles_per_s", "1/s"},
	{"trace.traced_pcycles_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	// Simulator set-up, constructor by constructor.
	{"setup.workload_s", "s"},
	{"setup.netsim_s", "s"},
	{"setup.cohsim_s", "s"},
	{"setup.procsim_s", "s"},
	// Simulated statistics of the fixed checked window: identical under
	// any speed-only change.
	{"sim.cycles_ticked", "count"},
	{"sim.skip_ratio", "ratio"},
	{"netsim.messages", "count"},
	{"netsim.flit_hops", "count"},
	{"netsim.avg_latency_ncycles", "ncycles"},
	{"netsim.channel_util", "ratio"},
	{"cohsim.transactions", "count"},
	{"cohsim.msgs_per_txn", "count"},
	{"cohsim.txn_latency_pcycles", "pcycles"},
	{"cohsim.miss_ratio", "ratio"},
	{"procsim.busy_frac", "ratio"},
	{"procsim.idle_frac", "ratio"},
	{"procsim.switch_frac", "ratio"},
	{"model_gap_pct", "%"},
	// Serving stages, from replaying the request sequence in process.
	{"serve.decode_us", "us"},
	{"serve.resolve_us", "us"},
	{"core.solve_us", "us"},
	{"core.cache_hit_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.wait_us", "us"},
	{"serve.class.solve.p50_us", "us"},
	{"serve.class.solve.p99_us", "us"},
	{"serve.class.gain.p50_us", "us"},
	{"serve.class.gain.p99_us", "us"},
	{"serve.class.sensitivity.p50_us", "us"},
	{"serve.class.sensitivity.p99_us", "us"},
	{"serve.coalesced_frac", "ratio"},
	{"core.cache_hit_ratio", "ratio"},
	{"client.lateness_p99_us", "us"},
	// Distributed sweep.
	{"sweepgrid.cell_s", "s"},
	{"engine.balance_eff", "ratio"},
	{"serve.sweep_chunks", "count"},
	{"serve.sweep_requeues", "count"},
}

// workloads maps each workload name to the function that runs it. Why
// each exists is in README.md.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"fabric-congested": func(ctx context.Context, r *run) error { return runSim(ctx, r, fabricCongested) },
	"sparse-large":     func(ctx context.Context, r *run) error { return runSim(ctx, r, sparseLarge) },
	"served-mix":       runServedMix,
	"served-sweep":     runServedSweep,
}

// phase counts one phase's operations. A correctness check is an
// operation too: a check that fails is a failed operation.
type phase struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

// run is one benchmark invocation's state: its inputs, its phases and
// the metrics it has measured so far.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	phases  []*phase
	metrics map[string]float64
	// notes are measurements the run record shows but no metric gates.
	notes map[string]float64
	// failures keeps the first few failure messages for the report.
	failures []string
}

func newRun(workload string, seed int64, seconds float64, trace bool) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, trace: trace,
		metrics: map[string]float64{}, notes: map[string]float64{}}
}

// budget is the measured wall-clock time a run gets.
func (r *run) budget() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// phase returns the named phase, creating it on first use.
func (r *run) phase(name string) *phase {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	p := &phase{Name: name}
	r.phases = append(r.phases, p)
	return p
}

// record counts one operation of the named phase; a non-nil err marks
// it failed and keeps the message.
func (r *run) record(name string, err error) {
	p := r.phase(name)
	p.Sent++
	if err == nil {
		p.Succeeded++
		return
	}
	p.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// check records a correctness check as an operation of the "checks"
// phase.
func (r *run) check(what string, ok bool, detail string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("%s: "+detail, append([]any{what}, args...)...)
	}
	r.record("checks", err)
}

func (r *run) totals() (attempted, failed int64) {
	for _, p := range r.phases {
		attempted += p.Sent
		failed += p.Failed
	}
	return attempted, failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line. A metric the workload did not
// measure reads 0; a non-finite value is a benchmark defect and makes
// the run incorrect.
func (r *run) summarize() summary {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := summary{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("metric "+d.name, false, "non-finite value %v", v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Attempted, out.Failed = r.totals()
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out
}

// report is the line printed before the result: what ran, where, and
// every phase's accounting.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Phases     []*phase           `json:"phases"`
	Notes      map[string]float64 `json:"notes,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := flag.Float64("seconds", 10, "measured wall-clock seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	pin := flag.Bool("pin", false, "print a fresh reference.json for the simulator workloads at -seed and exit")
	flag.Parse()

	if *pin {
		if err := writeReference(context.Background(), os.Stdout, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r := newRun(*workload, *seed, *seconds, *traceFlag == 1)
	if err := runWorkload(context.Background(), r); err != nil {
		// An error here means the run could not be carried out at all
		// (a set-up failure, not a failed operation): print no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	sum := r.summarize()
	rep := report{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Phases: r.phases, Notes: r.notes, Failures: r.failures,
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(map[string]report{"run": rep}), enc.Encode(sum)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
