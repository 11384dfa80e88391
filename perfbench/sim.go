package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"locality/internal/core"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/topology"
	"locality/internal/workload"
)

// simCase is one simulator workload: a torus, a relaxation workload and
// the placements one measured pass runs back to back. A pass builds a
// fresh machine per placement, warms it up, resets its statistics and
// runs a fixed window in timed steps, so every pass of a run repeats
// exactly the same simulated work.
type simCase struct {
	name     string
	radix    int
	contexts int
	compute  int  // ReadCompute = WriteCompute, P-cycles
	stagger  bool // desynchronize threads, as experiments.RunGainScale does
	warmup   int64
	window   int64
	// step is the P-cycles one timed operation advances; small enough
	// that a run collects over a thousand steps.
	step int64
	// placements returns the pass's mappings for a workload seed.
	placements func(tor *topology.Torus, seed int64) []*mapping.Mapping
	// gain marks a pass of ideal then random placement whose measured
	// locality gain is compared with the combined model's.
	gain bool
}

// fabricCongested is the paper's comm-heavy relaxation on 256 nodes:
// 20-cycle grain at p=2 under random placement, where the fabric does
// nearly all the host work and the event kernel skips nothing.
var fabricCongested = simCase{
	name: "fabric-congested", radix: 16, contexts: 2, compute: 20,
	warmup: 1000, window: 3000, step: 50,
	placements: func(tor *topology.Torus, seed int64) []*mapping.Mapping {
		return []*mapping.Mapping{mapping.Random(tor, seed)}
	},
}

// sparseLarge is one gain-scale cell on 10,000 nodes (the
// experiments.RunGainScale k=100 point): 4000-cycle grain at p=1,
// ideal then random placement, caches sized to the working set.
var sparseLarge = simCase{
	name: "sparse-large", radix: 100, contexts: 1, compute: 4000, stagger: true,
	warmup: 4000, window: 8000, step: 25, gain: true,
	placements: func(tor *topology.Torus, seed int64) []*mapping.Mapping {
		return []*mapping.Mapping{mapping.Identity(tor), mapping.Random(tor, seed)}
	},
}

// modelGapTolerancePct bounds |measured − model| / model gain: the
// agreement EXPERIMENTS.md reports for the paper's Table 1 (every cell
// within about 4%).
const modelGapTolerancePct = 4.0

// maxSetupReps caps how often one run times set-up.
const maxSetupReps = 5000

// timeRepeated times fn as set-up at least minReps times and for at
// least minTime (at most maxSetupReps times), recording each attempt as
// an operation of the "setup" phase, and sets setup_s to the median.
// The teardown fn returns, if any, runs untimed before the next
// attempt.
func timeRepeated(r *run, minReps int, minTime time.Duration, fn func() (teardown func(), err error)) error {
	var reps []time.Duration
	for start := time.Now(); len(reps) < maxSetupReps && (len(reps) < minReps || time.Since(start) < minTime); {
		t0 := time.Now()
		teardown, err := fn()
		reps = append(reps, time.Since(t0))
		r.record("setup", err)
		if err != nil {
			return err
		}
		if teardown != nil {
			teardown()
		}
	}
	r.metrics["setup_s"] = median(seconds(reps))
	return nil
}

// torus builds the case's 2-D torus.
func (c simCase) torus() (*topology.Torus, error) { return topology.New(c.radix, 2) }

// config is the machine configuration for one placement: the
// reference architecture, with the cache grown to hold every
// instance's state word (experiments.RunGainScale's sizing) and the
// relaxation workload machine.New would build, plus Stagger where the
// case asks.
func (c simCase) config(tor *topology.Torus, m *mapping.Mapping) machine.Config {
	mc := machine.DefaultConfig(tor, m, c.contexts)
	mc.ReadCompute, mc.WriteCompute = c.compute, c.compute
	for mc.CacheLines < c.contexts*tor.Nodes() {
		mc.CacheLines *= 2
	}
	mc.Workload = workload.RelaxationConfig{
		Graph: tor, Map: m, Instances: c.contexts, LineSize: mc.LineSize,
		ReadCompute: c.compute, WriteCompute: c.compute, Stagger: c.stagger,
	}
	return mc
}

// modelGain is the combined model's locality gain for the random
// placement's exact distance, computed as experiments.RunGainScale does.
func (c simCase) modelGain(tor *topology.Torus, random *mapping.Mapping) (float64, error) {
	grain := workload.RelaxationConfig{
		Graph: tor, Map: mapping.Identity(tor), Instances: c.contexts, LineSize: 1,
		ReadCompute: c.compute, WriteCompute: c.compute,
	}.GrainEstimate(1)
	model := core.AlewifeLargeScale(c.contexts, 1)
	model.App.Grain = grain
	ideal, err := model.WithDistance(1).Solve()
	if err != nil {
		return 0, err
	}
	rnd, err := model.WithDistance(random.AvgDistance(tor)).Solve()
	if err != nil {
		return 0, err
	}
	return rnd.IssueTime / ideal.IssueTime, nil
}

// passResult is what one placement's machine produced in a pass.
type passResult struct {
	metrics machine.Metrics
	// cpu is the process CPU time of the window, steps the CPU time of
	// each step, wall the window's wall-clock time.
	cpu, wall time.Duration
	steps     []time.Duration
}

// stepper is what a pass drives: the real machine, or the traced
// assembly of the same program.
type stepper interface {
	// advance runs n P-cycles exactly as Machine.Execute(RunSpec{Cycles: n}) does.
	advance(ctx context.Context, n int64) error
	resetStats()
	measure() machine.Metrics
}

// machineStepper drives machine.Machine through its public run API.
type machineStepper struct{ m *machine.Machine }

func (s machineStepper) advance(ctx context.Context, n int64) error {
	_, err := s.m.Execute(ctx, machine.RunSpec{Cycles: n})
	return err
}
func (s machineStepper) resetStats()              { s.m.ResetStats() }
func (s machineStepper) measure() machine.Metrics { return s.m.Measure() }

// runPass warms st up, resets its statistics and runs the case's window
// in timed steps, recording each step as an operation of phase. Steps
// are timed in process CPU time (the simulation and the garbage
// collector), which leaves out time the host did not run the process:
// on a shared virtual machine, stolen CPU otherwise dominates the tail.
func runPass(ctx context.Context, r *run, c simCase, st stepper, phase string) (passResult, error) {
	if err := st.advance(ctx, c.warmup); err != nil {
		r.record(phase, err)
		return passResult{}, err
	}
	st.resetStats()
	res := passResult{steps: make([]time.Duration, 0, c.window/c.step)}
	for done := int64(0); done < c.window; done += c.step {
		t0, c0 := time.Now(), processCPU()
		err := st.advance(ctx, c.step)
		d, w := processCPU()-c0, time.Since(t0)
		r.record(phase, err)
		if err != nil {
			return passResult{}, err
		}
		res.cpu += d
		res.wall += w
		res.steps = append(res.steps, d)
	}
	res.metrics = st.measure()
	return res, nil
}

// checkPass applies the simulator checks to one pass: flit
// conservation in every machine, the pinned reference metrics for the
// default seed, every pass equal to the run's first, and the model gap.
func checkPass(r *run, c simCase, tor *topology.Torus, maps []*mapping.Mapping, res []passResult, first []machine.Metrics, conserved []error) {
	for i, err := range conserved {
		r.check(fmt.Sprintf("%s conservation", maps[i].Name), err == nil, "%v", err)
	}
	ref, ok, err := pinned(c.name, r.seed)
	r.check("reference.json", err == nil, "%v", err)
	if ok {
		r.check("reference.json windows", len(ref) == len(res), "%d pinned windows for %d placements", len(ref), len(res))
		for i := 0; i < len(res) && i < len(ref); i++ {
			r.check(fmt.Sprintf("%s pinned metrics", maps[i].Name), metricsEqual(res[i].metrics, ref[i]),
				"got %+v, pinned %+v", res[i].metrics, ref[i])
		}
	}
	for i := range res {
		r.check(fmt.Sprintf("%s deterministic", maps[i].Name), metricsEqual(res[i].metrics, first[i]),
			"pass metrics %+v differ from the first pass's %+v", res[i].metrics, first[i])
	}
	if c.gain {
		gap, err := modelGapPct(c, tor, maps, res)
		r.check("model gap", err == nil && gap <= modelGapTolerancePct, "gap %.3f%% (tolerance %.0f%%), err %v", gap, modelGapTolerancePct, err)
		r.metrics["model_gap_pct"] = gap
	}
}

// modelGapPct is |measured − model| / model locality gain in percent.
func modelGapPct(c simCase, tor *topology.Torus, maps []*mapping.Mapping, res []passResult) (float64, error) {
	model, err := c.modelGain(tor, maps[1])
	if err != nil {
		return 0, err
	}
	measured := res[1].metrics.InterTxnTime / res[0].metrics.InterTxnTime
	return 100 * math.Abs(measured-model) / model, nil
}

// timeSetup measures set-up: machine construction through the first
// executed cycle, for every placement of a pass, on throwaway machines,
// repeated for a second.
func timeSetup(ctx context.Context, r *run, c simCase, tor *topology.Torus, maps []*mapping.Mapping) error {
	return timeRepeated(r, 7, time.Second, func() (func(), error) {
		for _, m := range maps {
			mach, err := machine.New(c.config(tor, m))
			if err != nil {
				return nil, err
			}
			if _, err := mach.Execute(ctx, machine.RunSpec{Cycles: 1}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// runSim drives a simulator workload. Untraced, it repeats passes on
// the real machine until the budget is spent. Traced, it spends half
// the budget that way and half on the traced assembly, and reports the
// layer split of the traced passes.
func runSim(ctx context.Context, r *run, c simCase) error {
	tor, err := c.torus()
	if err != nil {
		return err
	}
	maps := c.placements(tor, r.seed)
	if err := timeSetup(ctx, r, c, tor, maps); err != nil {
		return err
	}

	untracedBudget := r.budget()
	if r.trace {
		untracedBudget /= 2
	}
	var (
		first  []machine.Metrics
		steps  []time.Duration
		rates  []float64 // P-cycles per CPU second, one per pass
		wall   time.Duration
		passes int
	)
	// Pass 0 warms the process up (heap growth, first-touch page faults):
	// it is checked but not timed.
	var start time.Time
	for ; passes < 2 || time.Since(start) < untracedBudget; passes++ {
		if passes == 1 {
			start = time.Now()
		}
		res := make([]passResult, len(maps))
		conserved := make([]error, len(maps))
		var cpu time.Duration
		for i, m := range maps {
			mach, err := machine.New(c.config(tor, m))
			if err != nil {
				return err
			}
			if res[i], err = runPass(ctx, r, c, machineStepper{mach}, "window"); err != nil {
				return err
			}
			conserved[i] = mach.Network().Check()
			if passes > 0 {
				steps = append(steps, res[i].steps...)
				cpu += res[i].cpu
				wall += res[i].wall
			}
		}
		if passes > 0 {
			rates = append(rates, float64(c.window*int64(len(maps)))/cpu.Seconds())
		}
		if first == nil {
			first = make([]machine.Metrics, len(res))
			for i := range res {
				first[i] = res[i].metrics
			}
		}
		checkPass(r, c, tor, maps, res, first, conserved)
	}
	r.metrics["work_per_s"] = median(rates)
	r.notes["wall_pcycles_per_s"] = float64(c.window*int64(len(maps)*(passes-1))) / wall.Seconds()
	us := micros(steps)
	r.metrics["latency_p50_us"] = median(us)
	r.metrics["latency_p90_us"] = percentile(us, 90)
	if r.trace {
		return runTracedSim(ctx, r, c, tor, maps, first)
	}
	return nil
}

// metricsEqual compares two windows' metrics bit for bit through their
// JSON encoding, which prints every float exactly (and fails on NaN,
// which makes the windows unequal).
func metricsEqual(a, b machine.Metrics) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// reference.json pins each simulator workload's window metrics at the
// default seed, one entry per placement in pass order. Regenerate with
// `go run . -pin` after a change that is meant to alter simulated
// behaviour; a speed-only change must leave it untouched.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed    int64                        `json:"seed"`
	Windows map[string][]machine.Metrics `json:"windows"`
}

// pinned returns the reference windows for a workload when seed is the
// pinned seed.
func pinned(workload string, seed int64) ([]machine.Metrics, bool, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, false, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Seed != seed {
		return nil, false, nil
	}
	w, ok := ref.Windows[workload]
	if !ok {
		return nil, false, fmt.Errorf("reference.json has no windows for %s", workload)
	}
	return w, true, nil
}

// passMetrics runs one pass of c on the real machine and returns each
// placement's window metrics.
func passMetrics(ctx context.Context, c simCase, seed int64) ([]machine.Metrics, error) {
	tor, err := c.torus()
	if err != nil {
		return nil, err
	}
	r := newRun(c.name, seed, 0, false)
	var out []machine.Metrics
	for _, m := range c.placements(tor, seed) {
		mach, err := machine.New(c.config(tor, m))
		if err != nil {
			return nil, err
		}
		res, err := runPass(ctx, r, c, machineStepper{mach}, "window")
		if err != nil {
			return nil, err
		}
		out = append(out, res.metrics)
	}
	return out, nil
}

// writeReference prints reference.json for seed.
func writeReference(ctx context.Context, w io.Writer, seed int64) error {
	ref := reference{Seed: seed, Windows: map[string][]machine.Metrics{}}
	for _, c := range []simCase{fabricCongested, sparseLarge} {
		ms, err := passMetrics(ctx, c, seed)
		if err != nil {
			return err
		}
		ref.Windows[c.name] = ms
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ref)
}
