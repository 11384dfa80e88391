package machine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"locality/internal/checkpoint"
	"locality/internal/mapping"
	"locality/internal/procsim"
	"locality/internal/telemetry"
	"locality/internal/topology"
	"locality/internal/workload"
)

// TestProcGaugesKernelParity: the event kernel lets processors without
// a due event lag, so every reader of processor state must catch them
// up first. After Execute, the registry's proc/* gauges and every
// node's Snapshot must equal the tick kernel's, across the parity grid.
func TestProcGaugesKernelParity(t *testing.T) {
	const warmup, window = 500, 2000
	type view struct {
		gauges map[string]float64
		procs  []procsim.Stats
	}
	for _, c := range parityGrid() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			run := func(mode KernelMode) view {
				cfg := buildParityMachine(t, c, mode, nil).cfg
				reg := telemetry.New()
				cfg.Telemetry = reg
				mach, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				execMeasured(t, mach, warmup, window)
				// Gauges first: Processor syncs the node it returns.
				v := view{gauges: map[string]float64{}}
				for _, val := range reg.Snapshot() {
					if strings.HasPrefix(val.Name, "proc/") {
						v.gauges[val.Name] = val.Value
					}
				}
				for node := 0; node < cfg.Topo.Nodes(); node++ {
					v.procs = append(v.procs, mach.Processor(node).Snapshot())
				}
				return v
			}
			tick, event := run(KernelTick), run(KernelEvent)
			if len(tick.gauges) != 7 {
				t.Fatalf("registry holds %d proc/* gauges, want 7", len(tick.gauges))
			}
			if !reflect.DeepEqual(tick.gauges, event.gauges) {
				t.Errorf("proc/* gauges differ:\n tick  %v\n event %v", tick.gauges, event.gauges)
			}
			for node := range tick.procs {
				if tick.procs[node] != event.procs[node] {
					t.Errorf("node %d Snapshot differs:\n tick  %+v\n event %+v", node, tick.procs[node], event.procs[node])
				}
			}
		})
	}
}

// TestEventKernelTicksOnlyDueProcessors is the gate on the event
// kernel's processor scheduling: on a sparse 10,000-node machine an
// executed cycle ticks the handful of processors with an event, not
// all N of them.
func TestEventKernelTicksOnlyDueProcessors(t *testing.T) {
	const grain, warmup, window = 4000, 4000, 4000
	tor := topology.MustNew(100, 2)
	place := mapping.Identity(tor)
	cfg := DefaultConfig(tor, place, 1)
	cfg.ReadCompute, cfg.WriteCompute = grain, grain
	for cfg.CacheLines < tor.Nodes() {
		cfg.CacheLines *= 2
	}
	cfg.Workload = workload.RelaxationConfig{
		Graph: tor, Map: place, Instances: 1, LineSize: cfg.LineSize,
		ReadCompute: grain, WriteCompute: grain, Stagger: true,
	}
	mach, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Start past the first executed cycle, which ticks every processor,
	// and the opening compute bursts.
	if _, err := mach.Execute(ctx, RunSpec{Cycles: warmup}); err != nil {
		t.Fatal(err)
	}
	ticks := mach.ps.ticks
	if _, err := mach.Execute(ctx, RunSpec{Cycles: window}); err != nil {
		t.Fatal(err)
	}
	ticks = mach.ps.ticks - ticks
	n := int64(tor.Nodes())
	t.Logf("%d processor ticks over %d cycles on %d nodes (%.2f per cycle)", ticks, window, n, float64(ticks)/window)
	if limit := n * window / 100; ticks >= limit {
		t.Errorf("%d processor ticks over %d cycles, want fewer than N·cycles/100 = %d", ticks, window, limit)
	}
}

// parentFixture is a checkpoint written by the machine as of commit
// fd5c66c, which registered one kernel component per processor. Each
// was taken from a 4×4 torus under random placement (seed 1) with
// 400-cycle compute bursts, running Warmup 500 / Window 2000 with
// periodic checkpoints every `every` cycles; the file is the snapshot
// at `cycle`. Both pin a pending charge to a processor (node 6 at p=1,
// node 0 at p=2), the index a one-component kernel must translate.
type parentFixture struct {
	contexts     int
	every, cycle int64
	telemetry    bool
}

func (f parentFixture) file() string {
	name := fmt.Sprintf("percomp-p%d-e%d-%d", f.contexts, f.every, f.cycle)
	if f.telemetry {
		name += "-telemetry"
	}
	return filepath.Join("testdata", name+".lckp")
}

func (f parentFixture) config(dir string) Config {
	tor := topology.MustNew(4, 2)
	cfg := DefaultConfig(tor, mapping.Random(tor, 1), f.contexts)
	cfg.ReadCompute, cfg.WriteCompute = 400, 400
	cfg.Checkpoint = CheckpointSpec{Every: f.every, Dir: dir}
	if f.telemetry {
		cfg.Telemetry = telemetry.New()
	}
	return cfg
}

// TestParentCheckpointFixtures: checkpoints written before processors
// became one kernel component restore, and resume to exactly the
// uninterrupted run — kernel accounting and cycle attribution
// included. Written with telemetry off, the files this machine writes
// are byte-identical to them.
func TestParentCheckpointFixtures(t *testing.T) {
	const warmup, window = 500, 2000
	var fixtures []parentFixture
	for _, tel := range []bool{false, true} {
		fixtures = append(fixtures,
			parentFixture{contexts: 1, every: 97, cycle: 2134, telemetry: tel},
			parentFixture{contexts: 2, every: 293, cycle: 2051, telemetry: tel})
	}
	collect := func(mach *Machine, met Metrics) ckptResult {
		return ckptCollect(mach, met, mach.cfg.Trace, false)
	}
	for _, f := range fixtures {
		f := f
		t.Run(filepath.Base(f.file()), func(t *testing.T) {
			dir := t.TempDir()
			ref, err := New(f.config(dir))
			if err != nil {
				t.Fatal(err)
			}
			want := collect(ref, execMeasured(t, ref, warmup, window))

			fixture, err := os.ReadFile(f.file())
			if err != nil {
				t.Fatal(err)
			}
			if !f.telemetry {
				mine, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%d.lckp", f.cycle)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mine, fixture) {
					t.Errorf("snapshot at cycle %d is not byte-identical to the per-processor kernel's", f.cycle)
				}
			}

			ck, err := checkpoint.Read(bytes.NewReader(fixture))
			if err != nil {
				t.Fatal(err)
			}
			mach, err := RestoreFrom(f.config(t.TempDir()), ck)
			if err != nil {
				t.Fatalf("restoring: %v", err)
			}
			res, err := mach.Execute(context.Background(), RunSpec{Warmup: warmup, Window: window, ResumeFrom: true})
			if err != nil {
				t.Fatal(err)
			}
			compareCkptResults(t, "restored vs uninterrupted", want, collect(mach, res.Metrics))
			if a, b := ref.Attribution(), mach.Attribution(); a != b {
				t.Errorf("attribution differs:\n uninterrupted %v\n restored      %v", a, b)
			}
		})
	}
}

// TestEventKernelCyclesMatchPerProcessorKernel pins the event kernel's
// executed-cycle count to what it was when every processor was its own
// kernel component (commit fd5c66c), on 4×4 tori with staggered
// multithreaded workloads. Processors that are not due are not ticked
// now, so the schedule must still announce — and, on a context
// switch's last cycle, poll — exactly where the per-processor kernel
// did; an early announcement executes extra cycles.
func TestEventKernelCyclesMatchPerProcessorKernel(t *testing.T) {
	const warmup, window = 1000, 4000
	cases := []struct {
		contexts, grain int
		stagger         bool
		mapName         string
		ticked          int64
	}{
		{2, 400, false, "random", 449},
		{2, 400, true, "identity", 2019},
		{2, 400, true, "random", 2126},
		{2, 2000, true, "identity", 221},
		{2, 2000, true, "random", 232},
		{4, 400, false, "random", 409},
		{4, 400, true, "identity", 771},
		{4, 400, true, "random", 809},
		{4, 2000, true, "identity", 353},
		{4, 2000, true, "random", 369},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/p%d/grain%d/stagger=%v", c.mapName, c.contexts, c.grain, c.stagger)
		t.Run(name, func(t *testing.T) {
			tor := topology.MustNew(4, 2)
			place := mapping.Identity(tor)
			if c.mapName == "random" {
				place = mapping.Random(tor, 1)
			}
			cfg := DefaultConfig(tor, place, c.contexts)
			cfg.ReadCompute, cfg.WriteCompute = c.grain, c.grain
			cfg.Workload = workload.RelaxationConfig{
				Graph: tor, Map: place, Instances: c.contexts, LineSize: cfg.LineSize,
				ReadCompute: c.grain, WriteCompute: c.grain, Stagger: c.stagger,
			}
			mach, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			met := execMeasured(t, mach, warmup, window)
			if met.CyclesTicked != c.ticked || met.CyclesSkipped != window-c.ticked {
				t.Errorf("executed %d cycles and skipped %d, want %d and %d",
					met.CyclesTicked, met.CyclesSkipped, c.ticked, window-c.ticked)
			}
		})
	}
}

// TestProcSetArgBreaksTiesByNode: when a draining context switch heads
// the schedule, a processor due on the same cycle can sit one key
// later with a lower node. The announced processor is still the lowest
// node due at the minimum — the one a kernel with a component per
// processor, ties going to the earliest registered, would charge.
func TestProcSetArgBreaksTiesByNode(t *testing.T) {
	s := &procSet{procs: make([]*procsim.Processor, 4)}
	for _, e := range []procEntry{{22, 0}, {2*10 - 1, 3}, {20, 1}, {20, 2}} {
		s.heap = append(s.heap, e)
		s.up(len(s.heap) - 1)
	}
	if ne := s.NextEvent(); ne != 10 || s.arg != 1 {
		t.Errorf("NextEvent = %d announced by node %d, want 10 by node 1", ne, s.arg)
	}
	s.pop()
	if ne := s.NextEvent(); ne != 10 || s.arg != 1 {
		t.Errorf("after the switch pops: NextEvent = %d by node %d, want 10 by node 1", ne, s.arg)
	}
}
