package machine

import (
	"fmt"
	"slices"
	"strings"

	"locality/internal/procsim"
	"locality/internal/sim"
	"locality/internal/trace"
)

// KernelMode selects the machine's execution loop. It is sim's typed
// kernel enum; the alias keeps the historical machine.KernelEvent /
// machine.KernelTick spellings working.
type KernelMode = sim.KernelKind

const (
	// KernelEvent is the default: the sim kernel executes a cycle,
	// then advances straight to the global minimum next-event,
	// skipping quiescent spans. Bit-identical to KernelTick.
	KernelEvent = sim.KernelEvent
	// KernelTick is the naive reference loop, executing every cycle.
	// Kept as an escape hatch and for differential testing.
	KernelTick = sim.KernelTick
)

// The machine registers three components with the sim kernel, in the
// order of the historical per-cycle loop — protocol, then the
// processors (one procSet covering every node, ticked in node order),
// then the network at ClockRatio sub-cycles — so an executed cycle
// under either kernel mode is the same code in the same order, and
// results are bit-identical.

// protoComp drives the coherence protocol. Its Tick also pins the
// machine's P-clock, which the transport and delivery closures read
// mid-cycle; during skipped spans nothing reads it, so updating it
// only on executed cycles is exact.
type protoComp struct{ m *Machine }

func (c protoComp) Tick(now int64) {
	c.m.pnow = now
	c.m.proto.Tick(now)
}

func (c protoComp) NextEvent() int64 { return c.m.proto.NextEvent() }

// netComp drives the fabric at ClockRatio network cycles per P-cycle.
// While fabric traffic is in flight (or the fault model cannot be
// advanced in bulk) it claims the very next P-cycle, making the
// machine unskippable; drained, it reports Never and lets SkipTo jump
// the network clock, replaying fault accounting in bulk. A fabric
// whose only pending work is local-bypass deliveries is still
// skippable — their due times were fixed at Send — so netComp
// announces the P-cycle containing the earliest due time instead of
// the very next one, extending quiescence skipping into spans where
// same-node messages are in flight.
type netComp struct{ m *Machine }

func (c netComp) Tick(now int64) {
	for r := 0; r < c.m.cfg.ClockRatio; r++ {
		c.m.net.Step()
	}
}

func (c netComp) NextEvent() int64 {
	ratio := int64(c.m.cfg.ClockRatio)
	if !c.m.net.Skippable() {
		// net.Now() == (last executed P-cycle + 1) · ClockRatio.
		return c.m.net.Now() / ratio
	}
	if due, ok := c.m.net.NextLocalDue(); ok {
		// The P-cycle whose network sub-cycles cover due delivers it.
		return due / ratio
	}
	return sim.Never
}

func (c netComp) Advance(to int64) {
	c.m.net.SkipTo((to + 1) * int64(c.m.cfg.ClockRatio))
}

// procSet drives every processor as one kernel component. Under the
// tick kernel it is the reference loop: every processor ticks on every
// executed cycle, in node order. Under the event kernel it ticks only
// the processors with an event due, so an executed cycle costs
// O(due processors) rather than O(N):
//
//   - A min-heap orders the polled processors by procKey, ties by
//     node; each processor has at most one entry. Tick pops every entry due at now, catches each processor
//     up over the cycles it lagged (Advance), ticks it, and leaves it
//     dirty: its NextEvent is polled at the kernel's next sweep, the
//     same point at which the tick-everything loop polled it.
//   - A skip costs O(1): Advance only records how far the set has
//     advanced (done); each processor applies the span when next
//     touched.
//   - Anything that reads processor state syncs it to done first
//     (sync, syncAll), and the protocol's wake-ups go through ready.
//
// Every processor starts dirty, so the first executed cycle after
// construction or a restore is one dense pass followed by an O(N)
// heapify.
type procSet struct {
	procs []*procsim.Processor
	dense bool // tick kernel: tick everything, keep no schedule
	// done is the last cycle the set has applied, by Tick or Advance.
	done int64
	// heap holds one entry per processor that is neither dirty nor
	// quiet, so no entry ever goes stale.
	heap []procEntry
	// quiet[v] marks a processor whose poll returned sim.Never (blocked
	// or idle): it has no heap entry until a wake-up schedules it.
	quiet []bool
	// dirty holds, in ascending node order, the processors ticked on
	// the last executed cycle and not yet polled; due is Tick's scratch.
	dirty, due []int32
	// arg is the lowest node announcing the last NextEvent result: the
	// processor a kernel with one component per processor would have
	// charged that cycle to (checkpoints record it).
	arg int
	// ticks counts processor Ticks.
	ticks int64
}

// procEntry is one scheduled processor.
type procEntry struct {
	key  int64
	node int32
}

func (a procEntry) less(b procEntry) bool {
	return a.key < b.key || (a.key == b.key && a.node < b.node)
}

// procKey is the heap key of a processor whose NextEvent is ne: 2·ne,
// or 2·ne−1 while a context switch drains. The switch's last cycle,
// ne−1, must tick the processor if it executes — the incoming
// context's first poll may merge compute bursts and move its event
// later — so such an entry pops one cycle early while still announcing
// ne: an entry's event is always (key+1)/2.
func procKey(p *procsim.Processor, ne int64) int64 {
	if p.Switching() {
		return 2*ne - 1
	}
	return 2 * ne
}

func newProcSet(procs []*procsim.Processor, dense bool) *procSet {
	s := &procSet{procs: procs, dense: dense}
	if !dense {
		n := len(procs)
		s.heap = make([]procEntry, 0, n)
		s.quiet = make([]bool, n)
		s.dirty = make([]int32, 0, n)
		s.due = make([]int32, 0, n)
	}
	s.reset(0)
	return s
}

// reset marks every processor unpolled, with now the next cycle to
// execute: the state after construction or a checkpoint restore.
func (s *procSet) reset(now int64) {
	s.done = now - 1
	s.arg = -1
	if s.dense {
		return
	}
	s.heap = s.heap[:0]
	s.dirty = s.dirty[:0]
	for v := range s.procs {
		s.quiet[v] = false
		s.dirty = append(s.dirty, int32(v))
	}
}

func (s *procSet) Tick(now int64) {
	s.done = now
	if s.dense {
		for _, p := range s.procs {
			p.Tick(now)
		}
		s.ticks += int64(len(s.procs))
		return
	}
	due := s.due[:0]
	for len(s.heap) > 0 && s.heap[0].key <= 2*now+1 {
		due = append(due, s.pop())
	}
	popped := len(due)
	due = append(due, s.dirty...)
	if popped > 0 && len(due) > 1 {
		slices.Sort(due) // entries pop in key order; ticks go in node order
	}
	for _, v := range due {
		p := s.procs[v]
		p.Advance(now - 1)
		p.Tick(now)
	}
	s.ticks += int64(len(due))
	s.due, s.dirty = s.dirty[:0], due
}

// NextEvent polls the processors ticked since the last sweep and
// returns the earliest scheduled event.
func (s *procSet) NextEvent() int64 {
	if s.dense {
		next := sim.Never
		s.arg = -1
		for v, p := range s.procs {
			if ne := p.NextEvent(); ne < next {
				next, s.arg = ne, v
			}
		}
		return next
	}
	s.poll()
	if len(s.heap) == 0 {
		s.arg = -1
		return sim.Never
	}
	top := s.heap[0]
	s.arg = int(top.node)
	if top.key&1 == 1 {
		// A draining switch is at the top: a processor whose event is
		// the same cycle may sit one key later with a lower node.
		s.arg = int(s.lowest(top.key + 1))
	}
	return (top.key + 1) / 2
}

// Advance records a skipped span. Lagging processors apply it when
// next ticked, woken or read.
func (s *procSet) Advance(to int64) { s.done = to }

// poll schedules every dirty processor. A large batch (the dense pass
// after construction or restore) is heapified in O(N) rather than
// pushed one by one.
func (s *procSet) poll() {
	if len(s.dirty) == 0 {
		return
	}
	base := len(s.heap)
	for _, v := range s.dirty {
		p := s.procs[v]
		ne := p.NextEvent()
		if ne == sim.Never {
			s.quiet[v] = true
			continue
		}
		s.heap = append(s.heap, procEntry{procKey(p, ne), v})
	}
	s.dirty = s.dirty[:0]
	if added := len(s.heap) - base; added > base {
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			s.down(i)
		}
	} else {
		for i := base; i < len(s.heap); i++ {
			s.up(i)
		}
	}
}

// ready wakes thread on processor v. The protocol fires wake-ups from
// its own Tick, which may find v lagging: catch it up, wake it, and —
// if it was quiescent, the only state a wake-up moves earlier —
// schedule it. A dirty processor ticks this cycle anyway.
func (s *procSet) ready(v, thread int, now int64) {
	p := s.procs[v]
	p.Advance(s.done)
	p.Ready(thread, now)
	if s.dense || !s.quiet[v] {
		return
	}
	s.quiet[v] = false
	s.heap = append(s.heap, procEntry{procKey(p, p.NextEvent()), int32(v)})
	s.up(len(s.heap) - 1)
}

// sync makes processor v's state exact as of the last applied cycle.
func (s *procSet) sync(v int) { s.procs[v].Advance(s.done) }

// syncAll makes every processor's state exact as of the last applied
// cycle. Every reader of processor state goes through it or sync.
func (s *procSet) syncAll() {
	for _, p := range s.procs {
		p.Advance(s.done)
	}
}

// lowest returns the lowest node among entries with key ≤ max,
// walking only the heap's top subtree that holds them.
func (s *procSet) lowest(max int64) int32 {
	best := int32(len(s.procs))
	var walk func(i int)
	walk = func(i int) {
		if i >= len(s.heap) || s.heap[i].key > max {
			return
		}
		best = min(best, s.heap[i].node)
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return best
}

func (s *procSet) pop() int32 {
	h := s.heap
	v := h[0].node
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	s.down(0)
	return v
}

func (s *procSet) up(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *procSet) down(i int) {
	h := s.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// buildKernel assembles the sim kernel in historical tick order. The
// telemetry sampler, when enabled, registers last: it observes each
// executed cycle after every substrate has ticked it.
func (m *Machine) buildKernel() {
	m.ps = newProcSet(m.procs, m.cfg.Kernel == KernelTick)
	comps := []sim.Component{protoComp{m}, m.ps, netComp{m}}
	if m.slicer != nil {
		comps = append(comps, m.slicer)
	}
	m.kernel = sim.New(comps...)
	if m.cfg.Telemetry != nil {
		m.kernel.EnableAttribution()
	}
	if m.cfg.Trace.Enabled() {
		m.kernel.SetOnSkip(func(from, to int64) {
			m.cfg.Trace.Emit(trace.Event{
				Cycle: from, Kind: trace.KindKernelSkip,
				Node: -1, Peer: -1, Info: to - from,
			})
		})
	}
}

// advance moves the machine forward pCycles P-cycles under the
// configured kernel mode.
func (m *Machine) advance(pCycles int64) {
	if m.cfg.Kernel == KernelTick {
		m.kernel.RunTick(pCycles)
	} else {
		m.kernel.Run(pCycles)
	}
	m.pnow = m.kernel.Now()
}

// KernelStats returns the kernel's cumulative execution accounting
// (cycles executed vs. skipped since construction).
func (m *Machine) KernelStats() sim.Stats { return m.kernel.Stats() }

// DiagSnapshot renders a machine-wide diagnostic: the kernel's
// execution accounting followed by the fabric occupancy dump, and —
// when telemetry is enabled — the cycle-attribution breakdown and the
// full registry dump. Stall reports embed it so a watchdog abort shows
// how the machine was being driven as well as where traffic is stuck.
func (m *Machine) DiagSnapshot() string {
	ks := m.kernel.Stats()
	s := fmt.Sprintf("kernel %s @ P-cycle %d: %d cycles executed, %d skipped (%.1f%% skip ratio)\n%s",
		m.cfg.Kernel, m.pnow, ks.Ticked, ks.Skipped, 100*ks.SkipRatio(), m.net.DiagSnapshot())
	if m.cfg.Telemetry != nil {
		var b strings.Builder
		b.WriteString(s)
		fmt.Fprintf(&b, "\ncycle attribution: %s\ntelemetry registry:\n", m.Attribution())
		if err := m.cfg.Telemetry.Dump(&b); err != nil {
			fmt.Fprintf(&b, "(registry dump failed: %v)\n", err)
		}
		return b.String()
	}
	return s
}
