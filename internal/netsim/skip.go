package netsim

import "fmt"

// bulkFaultCounter is the optional fast path a LinkFaultModel can
// provide for quiescence skipping: CountDown returns how many cycles
// in [from, to) the channel is down, advancing the model's internal
// state exactly as the equivalent sequence of per-cycle Down queries
// would. faults.LinkFaults implements it; a model without it makes the
// fabric unskippable (Skippable returns false) rather than inaccurate.
type bulkFaultCounter interface {
	CountDown(channel int, from, to int64) int64
}

// Skippable reports whether the fabric's per-cycle Step is fully
// predictable right now, so a span of cycles may be applied through
// SkipTo instead. A drained fabric only does two things per cycle:
// advance the clock, and — with fault injection enabled — query every
// channel's fault state, charging faultStalls for down channels even
// though no worm is stalled by them. The latter is reproducible in
// bulk only when the fault model supports CountDown.
//
// Pending local-bypass messages do NOT block skipping: their delivery
// times were fixed when Send accepted them, so the fabric stays
// predictable right up to the earliest due time. NextLocalDue exposes
// that bound; SkipTo enforces it.
func (nw *Network) Skippable() bool {
	if nw.queued != 0 || nw.flitsIn != nw.flitsOut {
		return false
	}
	if nw.cfg.Faults == nil {
		return true
	}
	_, ok := nw.cfg.Faults.(bulkFaultCounter)
	return ok
}

// NextLocalDue returns the earliest delivery time among pending
// local-bypass messages, and whether any are pending. A skippable
// fabric with a pending local delivery may only skip to cycles ≤ that
// bound (the delivering Step itself must execute).
func (nw *Network) NextLocalDue() (int64, bool) {
	if len(nw.local) == 0 {
		return 0, false
	}
	min := nw.local[0].due
	for _, e := range nw.local[1:] {
		if e.due < min {
			min = e.due
		}
	}
	return min, true
}

// SkipTo advances a skippable fabric's clock straight to nowN,
// applying in bulk exactly what the skipped Steps would have done:
// nothing, except per-channel fault-state advancement and the
// faultStalls accounting for down channel-cycles. Panics if the fabric
// is not Skippable, time would move backwards, or the span would jump
// over a pending local delivery — all kernel contract violations, not
// runtime conditions.
func (nw *Network) SkipTo(nowN int64) {
	if nowN < nw.now {
		panic(fmt.Sprintf("netsim: SkipTo(%d) behind current cycle %d", nowN, nw.now))
	}
	if !nw.Skippable() {
		panic(fmt.Sprintf("netsim: SkipTo(%d) on a busy or unskippable fabric", nowN))
	}
	for _, e := range nw.local {
		// An entry with due < nowN should have delivered during a
		// skipped cycle: the caller overshot its announced bound. The
		// Step at nowN itself still delivers due == nowN entries.
		if e.due < nowN {
			panic(fmt.Sprintf("netsim: SkipTo(%d) jumps over local delivery due at %d", nowN, e.due))
		}
	}
	if nw.cfg.Faults != nil && nowN > nw.now {
		bulk := nw.cfg.Faults.(bulkFaultCounter)
		channels := nw.nodes * nw.nports
		for ch := 0; ch < channels; ch++ {
			nw.faultStalls.Addn(bulk.CountDown(ch, nw.now, nowN))
		}
	}
	nw.now = nowN
}
