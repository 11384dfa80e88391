package main

import (
	"context"
	"fmt"
	"time"

	"locality/internal/cachesim"
	"locality/internal/cohsim"
	"locality/internal/machine"
	"locality/internal/mapping"
	"locality/internal/netsim"
	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/topology"
)

// The traced assembly is the machine's fault-free, telemetry-off path
// rebuilt from the layers' public constructors, in machine.New's order
// and with its kernel registration order (protocol, processors,
// network), so an executed cycle runs the same code in the same order.
// Every call from one layer into another passes through an adapter
// here that opens a span. A span's self time is its duration minus the
// spans nested in it, so a protocol Access made from inside a
// processor's Tick is charged to cohsim, not procsim. The assembly's
// simulated statistics must equal Machine.Execute's on the same
// configuration; runTracedSim checks that on every traced run.

// spanKind is the layer a span charges.
type spanKind int

const (
	spanKernel   spanKind = iota // sim.Kernel.Run minus everything below it
	spanProcTick                 // procsim Tick and Advance
	spanProcNext                 // procsim NextEvent
	spanCohsim                   // cohsim Tick, NextEvent, Access*, Join, Deliver
	spanNetsim                   // netsim Step, Skippable, NextLocalDue, SkipTo, Send
	nSpans
)

type frame struct {
	kind         spanKind
	start, child int64
}

// tracer accumulates self time per span kind on one goroutine.
type tracer struct {
	base  time.Time
	self  [nSpans]int64 // ns
	stack []frame
}

func newTracer() *tracer { return &tracer{base: time.Now(), stack: make([]frame, 0, 8)} }

func (t *tracer) enter(k spanKind) {
	t.stack = append(t.stack, frame{kind: k, start: int64(time.Since(t.base))})
}

func (t *tracer) exit() {
	end := int64(time.Since(t.base))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.self[f.kind] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// ctxPollInterval mirrors machine.Execute's run-loop chunking: the
// event kernel always executes the first cycle of a Run call, so the
// assembly must split a run at the same cycles for its kernel
// accounting to match. The parity check catches any drift.
const ctxPollInterval = 4096

// tracedMachine is the assembly. Its fields mirror machine.Machine's.
type tracedMachine struct {
	tr     *tracer
	ratio  int64
	nodes  int
	net    *netsim.Network
	proto  *cohsim.Protocol
	procs  []*procsim.Processor
	kernel *sim.Kernel
	pnow   int64

	windowStart int64
	ksWindow    sim.Stats
	procWindow  procsim.Stats // summed over processors at the window start
	selfWindow  [nSpans]int64 // tracer self times at the window start
	goWindow    goCounters

	// delivered counts fabric messages (src ≠ dst) the delivery adapter
	// passed to the protocol since the window start.
	delivered int64

	// setup is the constructor time per layer.
	setupWorkload, setupNetsim, setupCohsim, setupProcsim time.Duration
}

// newTraced assembles the case's machine for one placement, from the
// configuration c.config gives machine.New.
func newTraced(c simCase, tor *topology.Torus, m *mapping.Mapping, tr *tracer) (*tracedMachine, error) {
	mc := c.config(tor, m)
	tm := &tracedMachine{tr: tr, ratio: int64(mc.ClockRatio), nodes: tor.Nodes()}

	t0 := time.Now()
	wl := mc.Workload
	programs, err := wl.Programs()
	if err != nil {
		return nil, err
	}
	tm.setupWorkload = time.Since(t0)

	t0 = time.Now()
	net, err := netsim.New(netsim.Config{Topo: tor, BufferDepth: mc.BufferDepth, LocalDelay: mc.LocalDelay})
	if err != nil {
		return nil, err
	}
	tm.net = net
	tm.setupNetsim = time.Since(t0)

	t0 = time.Now()
	proto, err := cohsim.New(cohsim.Config{
		Nodes:      tor.Nodes(),
		Cache:      cachesim.Config{Lines: mc.CacheLines, LineSize: mc.LineSize},
		Home:       wl.HomeFunc(),
		HWPointers: mc.HWPointers,
		OnReady:    func(node, thread int, now int64) { tm.procs[node].Ready(thread, now) },
	})
	if err != nil {
		return nil, err
	}
	tm.proto = proto
	proto.SetTransport(tracedTransport{tm})
	net.SetDelivery(func(_ int64, msg *netsim.Message) {
		if msg.Src != msg.Dst {
			tm.delivered++
		}
		tr.enter(spanCohsim)
		proto.Deliver(msg.Dst, msg.Payload.(cohsim.Msg), tm.pnow)
		tr.exit()
	})
	tm.setupCohsim = time.Since(t0)

	t0 = time.Now()
	tm.procs = make([]*procsim.Processor, tor.Nodes())
	pcfg := procsim.Config{Contexts: mc.Contexts, SwitchTime: mc.SwitchTime, HitLatency: mc.HitLatency}
	for node := range tm.procs {
		p, err := procsim.New(node, pcfg, tracedMemory{tm}, programs[node])
		if err != nil {
			return nil, err
		}
		tm.procs[node] = p
	}
	tm.setupProcsim = time.Since(t0)

	tm.kernel = sim.New(tracedProto{tm}, tracedProcs{tm}, tracedNet{tm})
	return tm, nil
}

// tracedTransport is the protocol's transport into the fabric.
type tracedTransport struct{ tm *tracedMachine }

func (t tracedTransport) Send(src, dst, sizeFlits int, msg cohsim.Msg) {
	t.tm.tr.enter(spanNetsim)
	err := t.tm.net.Send(&netsim.Message{Src: src, Dst: dst, Size: sizeFlits, Payload: msg})
	t.tm.tr.exit()
	if err != nil {
		panic(fmt.Sprintf("perfbench: transport send failed: %v", err))
	}
}

// tracedMemory is the processors' memory system: the protocol.
type tracedMemory struct{ tm *tracedMachine }

func (a tracedMemory) Access(node, context int, addr uint64, write bool, now int64) bool {
	a.tm.tr.enter(spanCohsim)
	hit := a.tm.proto.Access(node, context, addr, write, now)
	a.tm.tr.exit()
	return hit
}

func (a tracedMemory) Prefetch(node int, addr uint64, now int64) bool {
	a.tm.tr.enter(spanCohsim)
	ok := a.tm.proto.Prefetch(node, addr, now)
	a.tm.tr.exit()
	return ok
}

func (a tracedMemory) WriteBehind(node int, addr uint64, now int64) bool {
	a.tm.tr.enter(spanCohsim)
	ok := a.tm.proto.WriteBehind(node, addr, now)
	a.tm.tr.exit()
	return ok
}

func (a tracedMemory) Join(node, thread int, addr uint64, now int64) bool {
	a.tm.tr.enter(spanCohsim)
	ok := a.tm.proto.Join(node, thread, addr, now)
	a.tm.tr.exit()
	return ok
}

// tracedProto is the protocol's kernel component; like the machine's,
// its Tick pins the P-clock the delivery adapter reads.
type tracedProto struct{ tm *tracedMachine }

func (c tracedProto) Tick(now int64) {
	c.tm.pnow = now
	c.tm.tr.enter(spanCohsim)
	c.tm.proto.Tick(now)
	c.tm.tr.exit()
}

func (c tracedProto) NextEvent() int64 {
	c.tm.tr.enter(spanCohsim)
	ne := c.tm.proto.NextEvent()
	c.tm.tr.exit()
	return ne
}

// tracedProcs registers the whole processor set as one component:
// Tick in node order, NextEvent as the minimum, Advance forwarded. The
// kernel's global minimum and its Tick and Advance order are the same
// as with one component per processor.
type tracedProcs struct{ tm *tracedMachine }

func (c tracedProcs) Tick(now int64) {
	c.tm.tr.enter(spanProcTick)
	for _, p := range c.tm.procs {
		p.Tick(now)
	}
	c.tm.tr.exit()
}

func (c tracedProcs) NextEvent() int64 {
	c.tm.tr.enter(spanProcNext)
	next := sim.Never
	for _, p := range c.tm.procs {
		if ne := p.NextEvent(); ne < next {
			next = ne
		}
	}
	c.tm.tr.exit()
	return next
}

func (c tracedProcs) Advance(to int64) {
	c.tm.tr.enter(spanProcTick)
	for _, p := range c.tm.procs {
		p.Advance(to)
	}
	c.tm.tr.exit()
}

// tracedNet clocks the fabric ClockRatio network cycles per P-cycle,
// with the machine's skip rules.
type tracedNet struct{ tm *tracedMachine }

func (c tracedNet) Tick(int64) {
	c.tm.tr.enter(spanNetsim)
	for r := int64(0); r < c.tm.ratio; r++ {
		c.tm.net.Step()
	}
	c.tm.tr.exit()
}

func (c tracedNet) NextEvent() int64 {
	tm := c.tm
	tm.tr.enter(spanNetsim)
	defer tm.tr.exit()
	if !tm.net.Skippable() {
		return tm.net.Now() / tm.ratio
	}
	if due, ok := tm.net.NextLocalDue(); ok {
		return due / tm.ratio
	}
	return sim.Never
}

func (c tracedNet) Advance(to int64) {
	c.tm.tr.enter(spanNetsim)
	c.tm.net.SkipTo((to + 1) * c.tm.ratio)
	c.tm.tr.exit()
}

// advance runs n P-cycles in machine.Execute's chunks.
func (tm *tracedMachine) advance(ctx context.Context, n int64) error {
	for done := int64(0); done < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := ctxPollInterval - done%ctxPollInterval
		if rest := n - done; rest < step {
			step = rest
		}
		tm.tr.enter(spanKernel)
		tm.kernel.Run(step)
		tm.tr.exit()
		tm.pnow = tm.kernel.Now()
		done += step
	}
	return nil
}

func (tm *tracedMachine) procTotals() procsim.Stats {
	var s procsim.Stats
	for _, p := range tm.procs {
		ps := p.Snapshot()
		s.Busy += ps.Busy
		s.Switching += ps.Switching
		s.Idle += ps.Idle
		s.Accesses += ps.Accesses
		s.Misses += ps.Misses
	}
	return s
}

func (tm *tracedMachine) resetStats() {
	tm.net.ResetStats()
	tm.proto.ResetStats()
	tm.windowStart = tm.pnow
	tm.ksWindow = tm.kernel.Stats()
	tm.procWindow = tm.procTotals()
	tm.delivered = 0
	tm.selfWindow = tm.tr.self
	tm.goWindow = readGoCounters()
}

// measure computes machine.Metrics the way Machine.Measure does.
func (tm *tracedMachine) measure() machine.Metrics {
	ns := tm.net.Snapshot()
	ps := tm.proto.Snapshot()
	ks := tm.kernel.Stats().Sub(tm.ksWindow)
	window := tm.pnow - tm.windowStart
	nodes := float64(tm.nodes)
	mt := machine.Metrics{
		PCycles:            window,
		NCycles:            ns.Cycles,
		Transactions:       ps.Transactions,
		Messages:           ns.Injected,
		MsgLatency:         ns.AvgLatency,
		MsgSize:            ns.AvgSize,
		AvgDistance:        ns.AvgHops,
		MsgsPerTxn:         ps.AvgTxnMsgs,
		TxnLatency:         ps.AvgTxnLatency,
		ChannelUtilization: ns.ChannelUtilization,
		SWTraps:            ps.SWTraps,
		Retries:            ps.Retries,
		HomeRetries:        ps.HomeRetries,
		DroppedMsgs:        ps.Dropped,
		LinkFaultCycles:    ns.FaultedChannelCycles,
		CyclesTicked:       ks.Ticked,
		CyclesSkipped:      ks.Skipped,
	}
	if ns.Injected > 0 && ns.Cycles > 0 {
		mt.InterMsgTime = float64(ns.Cycles) * nodes / float64(ns.Injected)
		mt.MsgRate = 1 / mt.InterMsgTime
	}
	if ps.Transactions > 0 && window > 0 {
		mt.InterTxnTime = float64(window) * nodes / float64(ps.Transactions)
		mt.TxnRate = 1 / mt.InterTxnTime
	}
	return mt
}

// check is the fabric's flit conservation plus a count taken at the
// layer boundary: every fabric delivery netsim counted in the window
// reached the protocol through the delivery adapter.
func (tm *tracedMachine) check() error {
	if err := tm.net.Check(); err != nil {
		return err
	}
	if d := tm.net.Snapshot().Delivered; d != tm.delivered {
		return fmt.Errorf("netsim counted %d fabric deliveries, the protocol received %d", d, tm.delivered)
	}
	return nil
}

// runTracedSim spends the rest of the budget on traced passes and
// reports the per-layer metrics. want holds Machine.Execute's window
// metrics for the same placements; every traced pass must equal them.
func runTracedSim(ctx context.Context, r *run, c simCase, tor *topology.Torus, maps []*mapping.Mapping, want []machine.Metrics) error {
	untraced := r.metrics["work_per_s"]
	tr := newTracer()
	var (
		cpu, setupW, setupN, setupC, setupP time.Duration
		pcyc, ticked, hops                  int64
		mallocs                             uint64
		self                                [nSpans]int64
		procs                               procsim.Stats
		last                                = make([]machine.Metrics, len(maps))
		passes                              int
	)
	g0 := readGoCounters()
	for start := time.Now(); passes == 0 || time.Since(start) < r.budget()/2; passes++ {
		hops = 0
		for i, m := range maps {
			tm, err := newTraced(c, tor, m, tr)
			if err != nil {
				return err
			}
			setupW += tm.setupWorkload
			setupN += tm.setupNetsim
			setupC += tm.setupCohsim
			setupP += tm.setupProcsim
			res, err := runPass(ctx, r, c, tm, "traced window")
			if err != nil {
				return err
			}
			cpu += res.cpu
			pcyc += c.window
			mallocs += readGoCounters().mallocs - tm.goWindow.mallocs
			for k := range self {
				self[k] += tr.self[k] - tm.selfWindow[k]
			}
			last[i] = res.metrics
			ticked += res.metrics.CyclesTicked
			hops += tm.net.Snapshot().FlitHops
			r.check(m.Name+" traced parity", metricsEqual(res.metrics, want[i]),
				"traced assembly %+v, Machine.Execute %+v", res.metrics, want[i])
			err = tm.check()
			r.check(m.Name+" traced conservation", err == nil, "%v", err)
			pt := tm.procTotals()
			procs.Busy += pt.Busy - tm.procWindow.Busy
			procs.Idle += pt.Idle - tm.procWindow.Idle
			procs.Switching += pt.Switching - tm.procWindow.Switching
			procs.Accesses += pt.Accesses - tm.procWindow.Accesses
			procs.Misses += pt.Misses - tm.procWindow.Misses
		}
	}
	gEnd := readGoCounters()

	n := float64(passes)
	perP := func(ns int64) float64 { return float64(ns) / float64(pcyc) }
	r.metrics["sim.pcycles"] = float64(pcyc)
	r.metrics["netsim.step_ns_per_pcycle"] = perP(self[spanNetsim])
	r.metrics["netsim.ns_per_flit_hop"] = float64(self[spanNetsim]) / (float64(hops) * n)
	r.metrics["cohsim.ns_per_pcycle"] = perP(self[spanCohsim])
	r.metrics["procsim.tick_ns_per_pcycle"] = perP(self[spanProcTick])
	r.metrics["procsim.next_event_ns_per_pcycle"] = perP(self[spanProcNext])
	r.metrics["sim.kernel_self_ns_per_pcycle"] = perP(self[spanKernel])
	r.metrics["sim.ns_per_executed_cycle"] = float64(cpu.Nanoseconds()) / float64(ticked)
	r.metrics["go.allocs_per_pcycle"] = float64(mallocs) / float64(pcyc)
	r.metrics["go.gc_cpu_frac"] = gcFrac(g0, gEnd)
	traced := float64(pcyc) / cpu.Seconds()
	r.metrics["trace.untraced_pcycles_per_s"] = untraced
	r.metrics["trace.traced_pcycles_per_s"] = traced
	r.metrics["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	r.metrics["setup.workload_s"] = setupW.Seconds() / n
	r.metrics["setup.netsim_s"] = setupN.Seconds() / n
	r.metrics["setup.cohsim_s"] = setupC.Seconds() / n
	r.metrics["setup.procsim_s"] = setupP.Seconds() / n

	// Simulated statistics of one pass, summed over its placements.
	// Every pass is identical, and the parity check holds each to
	// Machine.Execute's.
	var msgs, txns int64
	var lat, util, g, tt float64
	for _, mt := range last {
		msgs += mt.Messages
		txns += mt.Transactions
		lat += mt.MsgLatency * float64(mt.Messages)
		util += mt.ChannelUtilization
		g += mt.MsgsPerTxn * float64(mt.Transactions)
		tt += mt.TxnLatency * float64(mt.Transactions)
	}
	r.metrics["sim.cycles_ticked"] = float64(ticked) / n
	r.metrics["sim.skip_ratio"] = 1 - float64(ticked)/float64(pcyc)
	r.metrics["netsim.messages"] = float64(msgs)
	r.metrics["netsim.flit_hops"] = float64(hops)
	r.metrics["netsim.avg_latency_ncycles"] = lat / float64(msgs)
	r.metrics["netsim.channel_util"] = util / float64(len(last))
	r.metrics["cohsim.transactions"] = float64(txns)
	r.metrics["cohsim.msgs_per_txn"] = g / float64(txns)
	r.metrics["cohsim.txn_latency_pcycles"] = tt / float64(txns)
	r.metrics["cohsim.miss_ratio"] = float64(procs.Misses) / float64(procs.Accesses)
	cycles := float64(procs.Busy + procs.Idle + procs.Switching)
	r.metrics["procsim.busy_frac"] = float64(procs.Busy) / cycles
	r.metrics["procsim.idle_frac"] = float64(procs.Idle) / cycles
	r.metrics["procsim.switch_frac"] = float64(procs.Switching) / cycles
	return nil
}
