// Package netsim is a flit-level simulator of packet-switched, wormhole
// routed k-ary n-dimensional torus networks, mirroring the interconnect
// of the architecture in the paper's Section 3: a pair of unidirectional
// channels between neighboring switches in every dimension, single-cycle
// base delay through a switch, e-cube (dimension-ordered) routing, a
// moderate amount of buffering per switch input, and one flit crossing
// a channel per network cycle.
//
// Because minimal routing on torus rings is cyclic, each physical
// channel carries two virtual channels with the standard dateline
// discipline: a worm travels on VC0 within a ring until it crosses the
// wraparound edge (the dateline), after which it uses VC1. Combined
// with dimension-ordered routing this makes the network provably
// deadlock-free.
//
// The simulator is synchronous: Step advances every switch by one
// network cycle using a two-phase (decide, commit) update so results
// are independent of iteration order. Messages destined for their own
// source node bypass the network and deliver after a configurable local
// latency; they are excluded from network traffic statistics, matching
// the paper's convention that nodes never send network messages to
// themselves.
//
// Per-switch state lives in flat record arrays indexed by router, port
// and key, buffered flits in one shared ring slab, and Step iterates an
// active-router worklist instead of all N routers, so a mostly-idle
// fabric costs O(active switches) per cycle and an untouched switch
// costs no resident memory (large zeroed slices are backed by
// untouched pages). These choices are behavior-preserving: see
// DESIGN.md §5i for the parity arguments.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"locality/internal/stats"
	"locality/internal/topology"
)

// Message is one network packet. Callers set Src, Dst, Size and
// Payload; the network fills in the accounting fields.
type Message struct {
	Src, Dst int
	// Size is the message length in flits (8-bit channel flits in the
	// reference architecture). Must be ≥ 1.
	Size int
	// Payload is opaque to the network.
	Payload any

	// EnqueuedAt is when Send accepted the message (N-cycles).
	EnqueuedAt int64
	// InjectedAt is when the head flit entered the source switch.
	InjectedAt int64
	// DeliveredAt is when the tail flit reached the destination node.
	DeliveredAt int64
	// Hops is the number of switch-to-switch channels traversed.
	Hops int

	remaining int // flits not yet emitted by the injector
	curDim    int // dimension the worm is currently traveling (-1 before first hop)
	vcClass   int // 0 before the dateline in curDim, 1 after
}

// Latency returns the end-to-end message latency including source
// queueing, in network cycles.
func (m *Message) Latency() int64 { return m.DeliveredAt - m.EnqueuedAt }

// NetworkLatency returns the latency from first flit entering the
// switch fabric to tail delivery, excluding source queueing.
func (m *Message) NetworkLatency() int64 { return m.DeliveredAt - m.InjectedAt }

// flit is one channel-width unit of a message in flight.
type flit struct {
	msg *Message
	seq int32 // 0-based flit index; 0 is the head
	// key is the virtual output key a head flit requests at the router
	// whose buffer holds it, computed once when the head is pushed
	// there (unused for body flits). A head's routing state changes
	// only in the commit that moves it out of the buffer, so the key
	// stays exact for as long as the flit waits.
	key       int32
	arrivedAt int64 // cycle the flit entered its current buffer
}

func (f flit) isHead() bool { return f.seq == 0 }
func (f flit) isTail() bool { return int(f.seq) == f.msg.Size-1 }

// routerRec is one switch's per-router record.
type routerRec struct {
	// flits counts flits buffered across all the router's inputs, for
	// O(1) occupancy checks.
	flits int32
	// active is set iff the router is on the active worklist.
	active bool
	// occ is a bitmask over the router's input buffers: bit idx is set
	// iff input idx is non-empty. Two words cover every legal topology
	// (nin = 4n+1 ≤ 125 for n ≤ 31). decide walks it so a router's cost
	// tracks its occupied inputs, not nin².
	occ [2]uint64
	// own is a bitmask over the router's virtual output keys: bit key is
	// set iff a worm owns that key.
	own [2]uint64
}

// portRec is one directional physical port's record.
type portRec struct {
	// nbr is the router on the far side of the port, precomputed so the
	// per-flit path does no coordinate division.
	nbr int32
	// lastVC rotates the physical channel between its two VCs.
	lastVC uint8
}

// keyRec is the record at index v·nin+i: router v's input buffer i
// and its virtual output key i. Inputs and keys share one index space
// (a fabric hop keeps its key, so input i is fed by the upstream
// router's key i), so one record serves both. The buffer's flits live
// in the network's ring slab, in slot slot, from ring index head, while
// count > 0; an empty buffer holds no slot.
type keyRec struct {
	// owner is the message holding virtual output key i, or nil.
	owner *Message
	slot  int32
	head  int32
	count int32 // ≤ depth, which New bounds below 2³¹
	// ownerInput is the input buffer feeding owner's worm (meaningful
	// only while owner is set).
	ownerInput uint8
	// lastGranted rotates arbitration among inputs for key i.
	lastGranted uint8
	// feeds is 1 + the key whose worm input i feeds (the key whose
	// ownerInput is i), or 0 when input i feeds no owned key. An input
	// feeds at most one worm at a time: a worm's flits are contiguous
	// in the buffer, and its tail releases the key before the next
	// worm's head can claim another.
	feeds uint8
}

// LinkFaultModel decides whether a directional physical channel is
// faulted at a given cycle. A faulted channel transfers no flits: the
// worm holding it stalls in place and ordinary wormhole backpressure
// propagates upstream, so no traffic is lost. Channels are identified
// as router·2n + port (see the port indexing above); queries are
// monotone in time per channel. A nil model means a fault-free fabric.
type LinkFaultModel interface {
	Down(channel int, now int64) bool
}

// Config parameterizes the network.
type Config struct {
	Topo *topology.Torus
	// BufferDepth is the per-virtual-channel flit buffer depth at each
	// switch input.
	BufferDepth int
	// LocalDelay is the delivery latency for src == dst messages,
	// which bypass the fabric (N-cycles). Defaults to 1 when zero.
	LocalDelay int
	// Faults, when non-nil, injects transient link faults (stalled
	// channels). Nil leaves the fabric behaviorally identical to a
	// fault-free build.
	Faults LinkFaultModel
}

// DeliveryFunc receives each message when its tail flit arrives.
type DeliveryFunc func(now int64, msg *Message)

// move is one committed flit transfer for the two-phase update. It
// carries what commit needs of the flit decide read (its message and
// sequence number), so commit drops the buffer's front without reading
// it again.
type move struct {
	msg     *Message
	seq     int32
	router  int32
	dest    int32 // destination router for fabric moves
	input   uint8
	outKey  uint8
	release bool // tail flit: release virtual output ownership
	acquire bool // head flit granted the output this cycle
	crossed bool // this hop crosses the dateline
	eject   bool
}

// Network simulates the whole fabric.
//
// Port/buffer indexing at each router, for a topology with n dims:
//
//	directional physical ports: o ∈ [0, 2n), o = 2·dim + (dir<0 ? 1 : 0)
//	virtual input buffers:      o·2 + vc for vc ∈ {0, 1}
//	injection input buffer:     4n (single buffer, no VC)
//	virtual output keys:        o·2 + vc, ejection key 4n
//
// Router state is stored in three record arrays: per-router records at
// v, per-port records at v·nports+o, and per-key records at v·nin+key
// (nin = 4n+1 inputs/keys per router). The arrays are allocated once
// in New; because a fresh large slice is zeroed pages the OS has not
// materialized, memory residency tracks the routers actually touched
// (the neighbor entries of the port records, which New fills, are the
// one exception). Buffered flits live in one ring slab whose slots
// follow the buffers occupied at once.
type Network struct {
	cfg    Config
	topo   *topology.Torus
	dims   int
	k      int
	nports int // directional physical ports per router (2·dims)
	nin    int // input buffers / virtual output keys per router (2·nports+1)
	nodes  int

	// Router state lives in three record arrays: routers[v],
	// ports[v·nports+o] and keys[v·nin+i].
	routers []routerRec
	ports   []portRec
	keys    []keyRec

	// ring is the flit slab: ring slot s is ring[s·depth : (s+1)·depth],
	// the ring buffer of whichever input holds s. A buffer takes a slot
	// on its first push and returns it when it drains; free is the LIFO
	// list of returned slots, reused before the slab grows, so the slab
	// holds as many slots as buffers were ever occupied at once.
	ring  []flit
	free  []int32
	depth int32

	// gathered is decide's per-router scratch: gathered[idx] is the
	// front flit of occupied input idx, read once per router visit.
	// reqBy[key] is the input whose arrived head requests key (the last
	// one gathered, when several do); it is read only for keys whose
	// request bit is set this visit.
	gathered []flit
	reqBy    []uint8

	// Active-router worklist: v is on it iff it holds buffered flits or
	// queued injections. Ascending at the top of every Step so
	// iteration visits routers in exactly the order the dense sweep
	// did: activeIDs[:activeSorted] is the ascending prefix, and Step
	// sorts the tail appended since then and merges it in (activeTail
	// is the merge's scratch).
	activeIDs    []int32
	activeSorted int
	activeTail   []int32
	// forceDense pins every router to the worklist permanently,
	// restoring the pre-worklist dense sweep. Behavior is identical by
	// construction (idle routers decide nothing and mutate nothing);
	// differential tests and benchmarks use it as the reference.
	forceDense bool

	// downAt[ch] is now+1 for every channel observed down by this
	// cycle's fault sweep (the +1 makes the zero value "never"). Only
	// allocated when a fault model is installed.
	downAt []int64

	// moves is the decide/commit scratch buffer, reused across cycles.
	moves []move

	// injectQ[v] holds messages waiting to enter the fabric at node v.
	injectQ [][]*Message
	// queued counts messages across all injection queues (partially
	// injected included), kept so Quiesced is O(1).
	queued int
	local  []localEntry
	now    int64

	deliver DeliveryFunc

	// lastProgress is the most recent cycle on which any flit entered,
	// moved within, or left the fabric (or a local message delivered).
	// The deadlock watchdog compares it against Now when traffic is in
	// flight.
	lastProgress int64

	// Lifetime flit conservation counters (never reset): every flit
	// accepted into an injection buffer, and every flit ejected at a
	// destination. Check verifies injected == ejected + in-flight.
	flitsIn  int64
	flitsOut int64

	// Statistics (since the last ResetStats).
	statsSince     int64
	injected       stats.Counter
	deliveredCount stats.Counter
	flitHops       stats.Counter // flit-channel traversals (fabric only)
	faultStalls    stats.Counter // channel-cycles lost to link faults
	latency        stats.Mean    // end-to-end incl. source queueing
	netLatency     stats.Mean    // fabric-only latency
	hops           stats.Mean
	sizes          stats.Mean
}

type localEntry struct {
	msg *Message
	due int64
}

// New validates the configuration and builds an idle network.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	if cfg.BufferDepth < 1 || cfg.BufferDepth > math.MaxInt32 {
		return nil, fmt.Errorf("netsim: buffer depth %d, must be in [1, 2^31)", cfg.BufferDepth)
	}
	if cfg.LocalDelay == 0 {
		cfg.LocalDelay = 1
	}
	if cfg.LocalDelay < 0 {
		return nil, fmt.Errorf("netsim: negative local delay %d", cfg.LocalDelay)
	}
	n := cfg.Topo.Nodes()
	dims := cfg.Topo.N()
	ports := 2 * dims
	nin := 2*ports + 1
	nw := &Network{
		cfg:      cfg,
		topo:     cfg.Topo,
		dims:     dims,
		k:        cfg.Topo.K(),
		nports:   ports,
		nin:      nin,
		nodes:    n,
		routers:  make([]routerRec, n),
		ports:    make([]portRec, n*ports),
		keys:     make([]keyRec, n*nin),
		depth:    int32(cfg.BufferDepth),
		gathered: make([]flit, nin),
		reqBy:    make([]uint8, nin),
		injectQ:  make([][]*Message, n),
	}
	// Fill the neighbor table without per-entry division: along
	// dimension dim the coordinate steps every stride routers, so a hop
	// moves the router number by ±stride, wrapping by ∓(k−1)·stride at
	// the ring's ends (topology.Neighbor's arithmetic, unrolled).
	k := nw.k
	for dim, stride := 0, 1; dim < dims; dim, stride = dim+1, stride*k {
		for lo := 0; lo < n; lo += stride * k {
			for c := 0; c < k; c++ {
				plus, minus := stride, -stride
				if c == k-1 {
					plus = -(k - 1) * stride
				}
				if c == 0 {
					minus = (k - 1) * stride
				}
				for v := lo + c*stride; v < lo+(c+1)*stride; v++ {
					nw.ports[v*ports+2*dim].nbr = int32(v + plus)
					nw.ports[v*ports+2*dim+1].nbr = int32(v + minus)
				}
			}
		}
	}
	if cfg.Faults != nil {
		nw.downAt = make([]int64, n*ports)
	}
	return nw, nil
}

// SetDelivery installs the delivery callback.
func (nw *Network) SetDelivery(fn DeliveryFunc) { nw.deliver = fn }

// Now returns the current network cycle.
func (nw *Network) Now() int64 { return nw.now }

// ejectKey is the virtual output key of the ejection port.
func (nw *Network) ejectKey() int { return 2 * nw.nports }

// injectIn is the input buffer index of the injection port.
func (nw *Network) injectIn() int { return 2 * nw.nports }

// has reports whether bit i of the two-word mask m is set.
func has(m *[2]uint64, i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// front returns the front flit of non-empty buffer r.
func (nw *Network) front(r *keyRec) flit {
	return nw.ring[int(r.slot)*int(nw.depth)+int(r.head)]
}

// flitAt returns the n-th flit of buffer r in pop order (n < r.count).
func (nw *Network) flitAt(r *keyRec, n int) flit {
	depth := int(nw.depth)
	return nw.ring[int(r.slot)*depth+(int(r.head)+n)%depth]
}

// pushFlit appends f to input idx of router v, caching a head flit's
// requested output key for that router, and records the occupancy. A
// buffer that was empty takes a ring slot: the most recently freed
// one, or a new slot at the end of the slab.
func (nw *Network) pushFlit(v, idx int, f flit) {
	if f.isHead() {
		f.key = int32(nw.requestKey(v, f.msg))
	}
	r := &nw.keys[v*nw.nin+idx]
	switch {
	case r.count == nw.depth:
		panic("netsim: push to full buffer")
	case r.count == 0:
		if last := len(nw.free) - 1; last >= 0 {
			r.slot, nw.free = nw.free[last], nw.free[:last]
		} else {
			r.slot = int32(len(nw.ring) / int(nw.depth))
			nw.ring = append(nw.ring, make([]flit, nw.depth)...)
		}
		r.head = 0
	}
	i := r.head + r.count
	if i >= nw.depth {
		i -= nw.depth
	}
	nw.ring[int(r.slot)*int(nw.depth)+int(i)] = f
	r.count++
	rt := &nw.routers[v]
	rt.occ[idx>>6] |= 1 << (idx & 63)
	rt.flits++
}

// dropFront removes the front flit of input idx of router v, returning
// the buffer's ring slot to the free list when it drains.
func (nw *Network) dropFront(v, idx int) {
	r := &nw.keys[v*nw.nin+idx]
	if r.count == 0 {
		panic("netsim: pop from empty buffer")
	}
	r.head++
	if r.head == nw.depth {
		r.head = 0
	}
	r.count--
	rt := &nw.routers[v]
	rt.flits--
	if r.count == 0 {
		nw.free = append(nw.free, r.slot)
		rt.occ[idx>>6] &^= 1 << (idx & 63)
	}
}

// activate puts router v on the worklist if it is not already there.
func (nw *Network) activate(v int) {
	if nw.routers[v].active {
		return
	}
	nw.routers[v].active = true
	n := len(nw.activeIDs)
	if nw.activeSorted == n && (n == 0 || nw.activeIDs[n-1] < int32(v)) {
		nw.activeSorted++ // an in-order append extends the sorted prefix
	}
	nw.activeIDs = append(nw.activeIDs, int32(v))
}

// mergeSortedTail sorts ids[sorted:] and merges it, in place and from
// the back, into the ascending prefix ids[:sorted]; ids holds distinct
// values. scratch carries the tail during the merge and is returned
// for reuse. The cost is the tail's sort plus the prefix entries it
// displaces, not a sort of the whole worklist.
func mergeSortedTail(ids []int32, sorted int, scratch []int32) []int32 {
	tail := append(scratch[:0], ids[sorted:]...)
	slices.Sort(tail)
	i, j := sorted-1, len(tail)-1
	for k := len(ids) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > tail[j] {
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = tail[j]
			j--
		}
	}
	return tail
}

// forceDenseSweep marks every router permanently active, restoring the
// pre-worklist dense per-cycle sweep for differential tests and
// benchmark baselines. Simulated behavior is identical; only the
// per-cycle iteration cost changes.
func (nw *Network) forceDenseSweep() {
	nw.forceDense = true
	for v := 0; v < nw.nodes; v++ {
		nw.activate(v)
	}
}

// ActiveRouters returns the current size of the active-router worklist
// (routers holding buffered flits or queued injections). O(1).
func (nw *Network) ActiveRouters() int { return len(nw.activeIDs) }

// Send enqueues a message for injection at its source node. Messages
// with src == dst bypass the fabric and deliver after LocalDelay.
func (nw *Network) Send(msg *Message) error {
	if msg.Size < 1 || msg.Size > math.MaxInt32 {
		return fmt.Errorf("netsim: message size %d, must be in [1, 2^31)", msg.Size)
	}
	if msg.Src < 0 || msg.Src >= nw.nodes || msg.Dst < 0 || msg.Dst >= nw.nodes {
		return fmt.Errorf("netsim: src %d or dst %d out of range [0,%d)", msg.Src, msg.Dst, nw.nodes)
	}
	msg.EnqueuedAt = nw.now
	msg.remaining = msg.Size
	msg.curDim = -1
	msg.vcClass = 0
	if msg.Src == msg.Dst {
		msg.InjectedAt = nw.now
		nw.local = append(nw.local, localEntry{msg: msg, due: nw.now + int64(nw.cfg.LocalDelay)})
		return nil
	}
	nw.injectQ[msg.Src] = append(nw.injectQ[msg.Src], msg)
	nw.queued++
	nw.activate(msg.Src)
	return nil
}

// outputPortFor returns the directional physical port the head flit
// requests at router v under e-cube routing (lowest dimension first,
// minimal direction, ties toward positive), or the ejection key when v
// is the destination.
func (nw *Network) outputPortFor(v, dst int) (port int, eject bool) {
	if v == dst {
		return 0, true
	}
	a, b := v, dst
	for dim := 0; dim < nw.dims; dim++ {
		ca, cb := a%nw.k, b%nw.k
		if ca != cb {
			d := ((cb-ca)%nw.k + nw.k) % nw.k
			switch {
			case 2*d < nw.k:
				return 2 * dim, false
			case 2*d > nw.k:
				return 2*dim + 1, false
			default:
				// Exactly halfway around the ring: both directions are
				// minimal. Split ties deterministically by the parity
				// of the current coordinate so neither direction's
				// channels carry systematically more load (coordinates
				// at a tie are uniform over the ring). The tie exists
				// only on the first hop in a dimension, so the route
				// stays consistent and any two messages between the
				// same endpoints take the same path.
				if ca%2 == 0 {
					return 2 * dim, false
				}
				return 2*dim + 1, false
			}
		}
		a /= nw.k
		b /= nw.k
	}
	return 0, true
}

// vcFor returns the virtual channel a head flit must use on port o:
// VC0 when entering a new dimension, its accumulated class otherwise.
func vcFor(msg *Message, o int) int {
	if msg.curDim != o/2 {
		return 0
	}
	return msg.vcClass
}

// Step advances the network one cycle.
func (nw *Network) Step() {
	if nw.activeSorted < len(nw.activeIDs) {
		nw.activeTail = mergeSortedTail(nw.activeIDs, nw.activeSorted, nw.activeTail)
		nw.activeSorted = len(nw.activeIDs)
	}
	if nw.cfg.Faults != nil {
		nw.sweepFaults()
	}
	nw.stepInjection()
	nw.decide()
	nw.commit()
	nw.compactActive()
	nw.stepLocal()
	nw.now++
}

// Run advances the network by cycles steps.
func (nw *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		nw.Step()
	}
}

// sweepFaults queries every channel's fault state for this cycle,
// charging faultStalls for each down channel and stamping downAt so
// decide can consult fault state without re-querying the model. The
// sweep is deliberately dense — over all channels in ascending order,
// exactly like the pre-worklist decide loop — because fault accounting
// (FaultedChannelCycles) and the model's per-channel RNG advancement
// are defined over every channel-cycle, occupied or not. With faults
// enabled a cycle therefore costs O(channels); a fault-free fabric
// (the large-machine configuration) skips this entirely.
func (nw *Network) sweepFaults() {
	stamp := nw.now + 1 // +1 so the zero value of downAt means "never"
	channels := nw.nodes * nw.nports
	for ch := 0; ch < channels; ch++ {
		if nw.cfg.Faults.Down(ch, nw.now) {
			nw.faultStalls.Inc()
			nw.downAt[ch] = stamp
		}
	}
}

// stepInjection streams flits of queued messages into each node's
// injection buffer, one flit per cycle per node. Only active routers
// can hold queued messages (Send activates the source).
func (nw *Network) stepInjection() {
	for _, v32 := range nw.activeIDs {
		v := int(v32)
		q := nw.injectQ[v]
		if len(q) == 0 {
			continue
		}
		if nw.keys[v*nw.nin+nw.injectIn()].count == nw.depth {
			continue
		}
		msg := q[0]
		seq := msg.Size - msg.remaining
		if seq == 0 {
			msg.InjectedAt = nw.now
			nw.injected.Inc()
			nw.sizes.Add(float64(msg.Size))
		}
		nw.pushFlit(v, nw.injectIn(), flit{msg: msg, seq: int32(seq), arrivedAt: nw.now})
		nw.flitsIn++
		nw.lastProgress = nw.now
		msg.remaining--
		if msg.remaining == 0 {
			// Nil the drained slot so the backing array does not keep
			// the delivered message reachable for the rest of the run.
			q[0] = nil
			nw.injectQ[v] = q[1:]
			nw.queued--
		}
	}
}

// decide computes at most one flit transfer per physical channel (and
// per ejection port) based on cycle-start state, appending to the
// reusable moves scratch buffer. Routers with no buffered flits can
// produce no transfer and mutate no arbitration state, so iterating
// the (sorted) worklist yields exactly the moves of a dense sweep, in
// the same order. A router with a single occupied input resolves its
// one flit in place; the others gather and arbitrate.
func (nw *Network) decide() {
	nw.moves = nw.moves[:0]
	for _, v32 := range nw.activeIDs {
		v := int(v32)
		rt := &nw.routers[v]
		switch {
		case rt.flits == 0:
		case rt.occ[1] == 0 && rt.occ[0]&(rt.occ[0]-1) == 0:
			nw.decideSingle(v, bits.TrailingZeros64(rt.occ[0]))
		default:
			nw.decideRouter(v)
		}
	}
}

// decideSingle resolves a router whose only occupied input is idx. Its
// front flit is eligible for at most one key: the owned key its input
// feeds, when the flit belongs to that worm, or else the free key it
// requests as an arrived head. Every other key has no eligible flit,
// so decideRouter's port loop would grant and mutate nothing for it:
// resolving the one flit here makes the same decision.
func (nw *Network) decideSingle(v, idx int) {
	base := v * nw.nin
	r := &nw.keys[base+idx]
	f := nw.front(r)
	if f.arrivedAt >= nw.now {
		return
	}
	key, acquire := 0, false
	switch {
	case r.feeds != 0 && nw.keys[base+int(r.feeds)-1].owner == f.msg:
		key = int(r.feeds) - 1
	case f.isHead() && !has(&nw.routers[v].own, int(f.key)):
		key, acquire = int(f.key), true
	default:
		return
	}
	if key != nw.ejectKey() && nw.portDown(v, key>>1) {
		return
	}
	nw.grant(v, idx, key, f, acquire)
}

// decideRouter arbitrates a router with several occupied inputs. The
// gather phase peeks each occupied input once, keeping its front flit
// in gathered, and builds two key masks: ready, the owned keys whose
// feeding input holds an arrived flit of the owning worm, and req, the
// keys some arrived head requests. A key can grant a transfer this
// cycle only if it is ready, or free and requested; the port loop
// visits just those keys, in port order (ports ascending, the VC
// rotor choosing which of a port's two keys goes first, the ejection
// key last). Every key it skips would grant nothing and mutate
// nothing.
func (nw *Network) decideRouter(v int) {
	base := v * nw.nin
	rt := &nw.routers[v]
	var req, multi, ready [2]uint64
	for w := 0; w < 2; w++ {
		for m := rt.occ[w]; m != 0; m &= m - 1 {
			idx := w<<6 + bits.TrailingZeros64(m)
			r := &nw.keys[base+idx]
			f := nw.front(r)
			nw.gathered[idx] = f
			if f.arrivedAt >= nw.now {
				continue
			}
			if r.feeds != 0 && nw.keys[base+int(r.feeds)-1].owner == f.msg {
				k := int(r.feeds) - 1
				ready[k>>6] |= 1 << (k & 63)
			}
			if f.isHead() {
				k := int(f.key)
				if has(&req, k) {
					multi[k>>6] |= 1 << (k & 63)
				}
				req[k>>6] |= 1 << (k & 63)
				nw.reqBy[k] = uint8(idx)
			}
		}
	}
	ek := nw.ejectKey()
	for w := 0; w < 2; w++ {
		for m := ready[w] | req[w]&^rt.own[w]; m != 0; {
			key := w<<6 + bits.TrailingZeros64(m)
			if key == ek {
				nw.decideKey(v, key, &multi)
				break
			}
			// Keys o·2 and o·2+1 share a mask word: o·2 is even, so its
			// bit position within the word is at most 62.
			o := key >> 1
			pair := uint64(3) << ((2 * o) & 63)
			both := m&pair == pair
			m &^= pair
			if nw.portDown(v, o) {
				// The channel is faulted this cycle: neither VC may
				// transfer a flit; worms stall in place.
				continue
			}
			if !both {
				nw.decideKey(v, key, &multi)
				continue
			}
			first := 2*o + 1 - int(nw.ports[v*nw.nports+o].lastVC)
			if !nw.decideKey(v, first, &multi) {
				nw.decideKey(v, first^1, &multi)
			}
		}
	}
}

// decideKey grants candidate key of router v to its flit: the owning
// worm's flit when the key is owned, else the requesting head the
// key's round-robin rotor picks (the first requester after the last
// one granted). Only decideRouter's candidate keys reach it, so the
// chosen input's flit is in gathered and eligible. multi marks the
// keys more than one head requests; any other key's one requester is
// reqBy[key]. It reports whether a move was appended.
func (nw *Network) decideKey(v, key int, multi *[2]uint64) bool {
	base := v * nw.nin
	kr := &nw.keys[base+key]
	if kr.owner != nil {
		input := int(kr.ownerInput)
		return nw.grant(v, input, key, nw.gathered[input], false)
	}
	input := int(nw.reqBy[key])
	if has(multi, key) {
		occ := &nw.routers[v].occ
		for i := 1; i <= nw.nin; i++ {
			idx := (int(kr.lastGranted) + i) % nw.nin
			if !has(occ, idx) {
				continue
			}
			if g := nw.gathered[idx]; g.isHead() && g.arrivedAt < nw.now && int(g.key) == key {
				input = idx
				break
			}
		}
	}
	// When the downstream buffer is full, no other input can use this
	// key more productively this cycle.
	return nw.grant(v, input, key, nw.gathered[input], true)
}

// portDown reports whether port o of router v is faulted this cycle.
func (nw *Network) portDown(v, o int) bool {
	return nw.downAt != nil && nw.downAt[v*nw.nports+o] == nw.now+1
}

// grant appends the move of flit f from input through key at router v
// when the downstream buffer has room, updating the port's VC rotor
// and, for a head claiming the key (acquire), the key's arbitration
// rotor. It reports whether a move was appended.
func (nw *Network) grant(v, input, key int, f flit, acquire bool) bool {
	next, crossed, eject := 0, false, key == nw.ejectKey()
	if !eject {
		// The node sinks one flit per cycle unconditionally; a fabric
		// hop needs room downstream.
		o := key >> 1
		p := &nw.ports[v*nw.nports+o]
		next = int(p.nbr)
		if nw.keys[next*nw.nin+key].count == nw.depth {
			return false
		}
		crossed = datelineHop(v, o, next)
		p.lastVC = uint8(key & 1)
	}
	if acquire {
		nw.keys[v*nw.nin+key].lastGranted = uint8(input)
	}
	// Fill the new move in place, field by field: a move built on the
	// stack from narrow stores and then copied in as wide words stalls
	// store forwarding on every hop.
	n := len(nw.moves)
	if n == cap(nw.moves) {
		nw.moves = slices.Grow(nw.moves, 1)
	}
	nw.moves = nw.moves[:n+1]
	mv := &nw.moves[n]
	mv.msg, mv.seq = f.msg, f.seq
	mv.router, mv.dest = int32(v), int32(next)
	mv.input, mv.outKey = uint8(input), uint8(key)
	mv.release, mv.acquire, mv.crossed, mv.eject = f.isTail(), acquire, crossed, eject
	return true
}

// requestKey returns the virtual output key the message's head flit
// requests at router v.
func (nw *Network) requestKey(v int, msg *Message) int {
	o, eject := nw.outputPortFor(v, msg.Dst)
	if eject {
		return nw.ejectKey()
	}
	return o*2 + vcFor(msg, o)
}

// datelineHop reports whether the hop from router v through port o to
// its neighbor next crosses the ring's wraparound edge. It does exactly
// when the hop steps against the port's direction in router numbering:
// neighbors along one dimension differ only in that dimension's digit,
// so a positive-direction hop lands on a lower-numbered router only on
// the k−1 → 0 wrap, and a negative-direction hop on a higher-numbered
// one only on 0 → k−1.
func datelineHop(v, o, next int) bool { return (o%2 == 0) == (next < v) }

// commit applies the decided transfers.
func (nw *Network) commit() {
	if len(nw.moves) > 0 {
		nw.lastProgress = nw.now
	}
	for i := range nw.moves {
		mv := &nw.moves[i]
		v, input, key := int(mv.router), int(mv.input), int(mv.outKey)
		base := v * nw.nin
		// Each input moves at most one flit per cycle, and pushes only
		// append behind the front, so the move's flit is still the
		// front one.
		nw.dropFront(v, input)
		f := flit{msg: mv.msg, seq: mv.seq}
		if mv.acquire {
			kr := &nw.keys[base+key]
			kr.owner = f.msg
			kr.ownerInput = mv.input
			nw.keys[base+input].feeds = mv.outKey + 1
			nw.routers[v].own[key>>6] |= 1 << (key & 63)
			if !mv.eject {
				// Update the worm's dateline state as its head
				// advances; body flits inherit the reserved path.
				// outKey = 4·dim + 2·(dir<0 ? 1 : 0) + vc.
				if newDim := key / 4; f.msg.curDim != newDim {
					f.msg.curDim = newDim
					f.msg.vcClass = 0
				}
				if mv.crossed {
					f.msg.vcClass = 1
				}
			}
		}
		if mv.release {
			nw.keys[base+key].owner = nil
			nw.keys[base+input].feeds = 0
			nw.routers[v].own[key>>6] &^= 1 << (key & 63)
		}
		if mv.eject {
			nw.flitsOut++
			if f.isTail() {
				nw.completeDelivery(f.msg)
			}
			continue
		}
		if f.isHead() {
			f.msg.Hops++
		}
		nw.flitHops.Inc()
		f.arrivedAt = nw.now
		// A fabric hop keeps its virtual channel key: the flit enters
		// the downstream input buffer with the same index.
		dest := int(mv.dest)
		nw.pushFlit(dest, key, f)
		// A flit arriving this cycle cannot move before the next one
		// (the arrivedAt >= now guard), so activating the destination
		// now — for the next cycle's worklist — is timing-exact.
		nw.activate(dest)
	}
}

// compactActive drops drained routers from the worklist: a router with
// no buffered flits and no queued injections contributes nothing to
// any future cycle until traffic re-activates it. Its persistent
// arbitration rotors (lastGranted, lastVC) and any stretched-worm
// output ownership stay in the record arrays, untouched, exactly as a
// dense sweep would leave them.
func (nw *Network) compactActive() {
	if nw.forceDense {
		return
	}
	kept := nw.activeIDs[:0]
	sorted := 0 // compaction keeps order: the kept part of the prefix stays sorted
	for i, v32 := range nw.activeIDs {
		v := int(v32)
		if nw.routers[v].flits > 0 || len(nw.injectQ[v]) > 0 {
			if i < nw.activeSorted {
				sorted++
			}
			kept = append(kept, v32)
		} else {
			nw.routers[v].active = false
		}
	}
	nw.activeIDs = kept
	nw.activeSorted = sorted
}

func (nw *Network) completeDelivery(msg *Message) {
	msg.DeliveredAt = nw.now
	nw.deliveredCount.Inc()
	nw.latency.Add(float64(msg.Latency()))
	nw.netLatency.Add(float64(msg.NetworkLatency()))
	nw.hops.Add(float64(msg.Hops))
	if nw.deliver != nil {
		nw.deliver(nw.now, msg)
	}
}

func (nw *Network) stepLocal() {
	if len(nw.local) == 0 {
		return
	}
	kept := nw.local[:0]
	for _, e := range nw.local {
		if e.due <= nw.now {
			e.msg.DeliveredAt = nw.now
			nw.lastProgress = nw.now
			if nw.deliver != nil {
				nw.deliver(nw.now, e.msg)
			}
		} else {
			kept = append(kept, e)
		}
	}
	nw.local = kept
}

// Quiesced reports whether no traffic remains anywhere in the network.
// O(1): queued covers the injection queues, the lifetime conservation
// counters cover every switch buffer, and local covers the bypass.
func (nw *Network) Quiesced() bool {
	return nw.queued == 0 && nw.flitsIn == nw.flitsOut && len(nw.local) == 0
}

// Stats is a snapshot of the network's aggregate measurements.
type Stats struct {
	// Injected counts network messages that entered the fabric
	// (src == dst messages are excluded).
	Injected int64
	// Delivered counts fabric messages whose tails reached their
	// destinations.
	Delivered int64
	// FlitHops counts flit-channel traversals within the fabric.
	FlitHops int64
	// AvgLatency is the mean end-to-end latency including source
	// queueing (N-cycles).
	AvgLatency float64
	// AvgNetLatency excludes source queueing.
	AvgNetLatency float64
	// AvgHops is the mean hop count per delivered message.
	AvgHops float64
	// AvgSize is the mean injected message size in flits.
	AvgSize float64
	// ChannelUtilization is the mean fraction of directional channels
	// busy per cycle so far.
	ChannelUtilization float64
	// FaultedChannelCycles counts channel-cycles lost to injected link
	// faults (zero in a fault-free run).
	FaultedChannelCycles int64
	// Cycles is the number of simulated cycles.
	Cycles int64
}

// Snapshot returns aggregate statistics accumulated since the last
// ResetStats (or construction).
func (nw *Network) Snapshot() Stats {
	s := Stats{
		Injected:             nw.injected.Value(),
		Delivered:            nw.deliveredCount.Value(),
		FlitHops:             nw.flitHops.Value(),
		AvgLatency:           nw.latency.Mean(),
		AvgNetLatency:        nw.netLatency.Mean(),
		AvgHops:              nw.hops.Mean(),
		AvgSize:              nw.sizes.Mean(),
		FaultedChannelCycles: nw.faultStalls.Value(),
		Cycles:               nw.now - nw.statsSince,
	}
	if s.Cycles > 0 {
		channels := float64(nw.topo.ChannelCount())
		s.ChannelUtilization = float64(s.FlitHops) / (float64(s.Cycles) * channels)
	}
	return s
}

// ResetStats zeroes the accumulated statistics without disturbing
// in-flight traffic, so a measurement window can exclude warmup.
// Messages in flight at the reset are attributed to the window in
// which they deliver.
func (nw *Network) ResetStats() {
	nw.statsSince = nw.now
	nw.injected = stats.Counter{}
	nw.deliveredCount = stats.Counter{}
	nw.flitHops = stats.Counter{}
	nw.faultStalls = stats.Counter{}
	nw.latency = stats.Mean{}
	nw.netLatency = stats.Mean{}
	nw.hops = stats.Mean{}
	nw.sizes = stats.Mean{}
}

// inFlightFlits counts flits currently buffered anywhere in the fabric
// (injection buffers included; queued-but-uninjected messages are not).
// O(active routers): inactive routers hold no flits by invariant.
func (nw *Network) inFlightFlits() int {
	total := 0
	for _, v := range nw.activeIDs {
		total += int(nw.routers[v].flits)
	}
	return total
}

// Check verifies the fabric's structural invariants: flit conservation
// (every flit ever accepted has either been ejected or is buffered in
// a switch), the queued-message counter, the per-router flit counts,
// input-occupancy and owned-output masks, every buffered head flit's
// cached output key, the ring slab (every non-empty buffer holds its
// own in-range slot, and the free list holds exactly the other slots,
// each once), the feeds back-pointers (input i feeds key k exactly
// when k is owned and its ownerInput is i), and the active-worklist
// invariant — the worklist holds exactly the routers with buffered
// flits or queued injections (every such router, no drained ones, no
// duplicates). Watchdog, fault, and restore code call this so no code
// path can silently leak flits or ring slots, or corrupt the worklist
// or the routing caches. O(N·nin + slots + buffered flits), so not for
// per-cycle hot paths.
func (nw *Network) Check() error {
	const (
		slotUnused = iota
		slotHeld
		slotFree
	)
	depth := int(nw.depth)
	slots := make([]uint8, len(nw.ring)/depth)
	var inFlight int64
	for v := 0; v < nw.nodes; v++ {
		base := v * nw.nin
		rt := &nw.routers[v]
		sum := int32(0)
		var occ, own [2]uint64
		for key := 0; key < nw.nin; key++ {
			r := &nw.keys[base+key]
			if r.count < 0 || r.count > nw.depth {
				return fmt.Errorf("netsim: router %d input %d holds %d flits at cycle %d, depth is %d", v, key, r.count, nw.now, depth)
			}
			if r.count > 0 {
				sum += r.count
				occ[key>>6] |= 1 << (key & 63)
				switch {
				case r.slot < 0 || int(r.slot) >= len(slots) || r.head < 0 || r.head >= nw.depth:
					return fmt.Errorf("netsim: router %d input %d ring slot %d head %d out of range at cycle %d (%d slots)",
						v, key, r.slot, r.head, nw.now, len(slots))
				case slots[r.slot] != slotUnused:
					return fmt.Errorf("netsim: router %d input %d shares ring slot %d with another buffer at cycle %d", v, key, r.slot, nw.now)
				}
				slots[r.slot] = slotHeld
			}
			for n := 0; n < int(r.count); n++ {
				f := nw.flitAt(r, n)
				if !f.isHead() {
					continue
				}
				if want := nw.requestKey(v, f.msg); int(f.key) != want {
					return fmt.Errorf("netsim: router %d input %d head flit %d→%d caches output key %d at cycle %d, route requests %d",
						v, key, f.msg.Src, f.msg.Dst, f.key, nw.now, want)
				}
			}
			if r.owner != nil {
				own[key>>6] |= 1 << (key & 63)
				if in := int(r.ownerInput); in >= nw.nin || int(nw.keys[base+in].feeds) != key+1 {
					return fmt.Errorf("netsim: router %d key %d is owned through input %d, which does not feed it, at cycle %d",
						v, key, in, nw.now)
				}
			}
			if fed := int(r.feeds) - 1; fed >= 0 {
				if fed >= nw.nin || nw.keys[base+fed].owner == nil || int(nw.keys[base+fed].ownerInput) != key {
					return fmt.Errorf("netsim: router %d input %d claims to feed key %d, which no worm owns through it, at cycle %d",
						v, key, fed, nw.now)
				}
			}
		}
		if sum != rt.flits {
			return fmt.Errorf("netsim: router %d flit count drifted at cycle %d: counter %d, buffers hold %d",
				v, nw.now, rt.flits, sum)
		}
		if occ != rt.occ {
			return fmt.Errorf("netsim: router %d input-occupancy mask drifted at cycle %d: mask %x, buffers %x",
				v, nw.now, rt.occ, occ)
		}
		if own != rt.own {
			return fmt.Errorf("netsim: router %d owned-output mask drifted at cycle %d: mask %x, owners %x",
				v, nw.now, rt.own, own)
		}
		occupied := sum > 0 || len(nw.injectQ[v]) > 0
		if occupied && !rt.active {
			return fmt.Errorf("netsim: router %d holds traffic at cycle %d but is missing from the active worklist", v, nw.now)
		}
		if !occupied && rt.active && !nw.forceDense {
			return fmt.Errorf("netsim: drained router %d left on the active worklist at cycle %d", v, nw.now)
		}
		inFlight += int64(sum)
	}
	for _, s := range nw.free {
		switch {
		case s < 0 || int(s) >= len(slots):
			return fmt.Errorf("netsim: free list holds ring slot %d of %d at cycle %d", s, len(slots), nw.now)
		case slots[s] == slotHeld:
			return fmt.Errorf("netsim: ring slot %d is on the free list but held by a buffer at cycle %d", s, nw.now)
		case slots[s] == slotFree:
			return fmt.Errorf("netsim: ring slot %d is on the free list twice at cycle %d", s, nw.now)
		}
		slots[s] = slotFree
	}
	if s := slices.Index(slots, slotUnused); s >= 0 {
		return fmt.Errorf("netsim: ring slot %d leaked at cycle %d: neither held nor free", s, nw.now)
	}
	if nw.flitsIn != nw.flitsOut+inFlight {
		return fmt.Errorf("netsim: flit conservation violated at cycle %d: injected %d != delivered %d + in-flight %d",
			nw.now, nw.flitsIn, nw.flitsOut, inFlight)
	}
	q := 0
	active := 0
	for v := 0; v < nw.nodes; v++ {
		q += len(nw.injectQ[v])
		if nw.routers[v].active {
			active++
		}
	}
	if q != nw.queued {
		return fmt.Errorf("netsim: queued-message count drifted at cycle %d: counter %d, queues hold %d",
			nw.now, nw.queued, q)
	}
	for _, v := range nw.activeIDs {
		if v < 0 || int(v) >= nw.nodes || !nw.routers[v].active {
			return fmt.Errorf("netsim: stale worklist entry %d at cycle %d", v, nw.now)
		}
	}
	if len(nw.activeIDs) != active {
		return fmt.Errorf("netsim: worklist holds %d entries but %d routers are marked active at cycle %d",
			len(nw.activeIDs), active, nw.now)
	}
	// The next Step merges the tail into the prefix; the result is
	// ascending only if the prefix is.
	if nw.activeSorted > len(nw.activeIDs) {
		return fmt.Errorf("netsim: worklist sorted prefix %d exceeds its %d entries at cycle %d",
			nw.activeSorted, len(nw.activeIDs), nw.now)
	}
	for i := 1; i < nw.activeSorted; i++ {
		if nw.activeIDs[i-1] >= nw.activeIDs[i] {
			return fmt.Errorf("netsim: worklist prefix not strictly ascending at entry %d (%d, %d) at cycle %d",
				i, nw.activeIDs[i-1], nw.activeIDs[i], nw.now)
		}
	}
	return nil
}

// Busy reports whether any traffic is anywhere in the network (the
// complement of Quiesced, for watchdog use).
func (nw *Network) Busy() bool { return !nw.Quiesced() }

// LastProgress returns the most recent cycle on which a flit entered,
// moved within, or left the fabric. A busy network whose LastProgress
// stays fixed is deadlocked (or fully fault-blocked).
func (nw *Network) LastProgress() int64 { return nw.lastProgress }

// DiagSnapshot renders a structured diagnostic of the fabric's current
// occupancy for stall reports: per-switch virtual-channel buffer
// occupancy, the worm holding each virtual output, and the age of the
// oldest buffered flit. Only non-empty switches are listed, capped to
// keep reports readable. O(active routers), not O(N).
func (nw *Network) DiagSnapshot() string {
	const maxRouters = 16
	var b strings.Builder
	fmt.Fprintf(&b, "network @ N-cycle %d: %d flits in flight, last progress at %d\n",
		nw.now, nw.inFlightFlits(), nw.lastProgress)
	var busyRouters []int
	for _, v32 := range nw.activeIDs {
		v := int(v32)
		if nw.routers[v].flits > 0 || len(nw.injectQ[v]) > 0 {
			busyRouters = append(busyRouters, v)
		}
	}
	slices.Sort(busyRouters)
	shown := busyRouters
	if len(shown) > maxRouters {
		shown = shown[:maxRouters]
	}
	for _, v := range shown {
		base := v * nw.nin
		fmt.Fprintf(&b, "  router %d (%v):", v, nw.topo.Coords(v))
		if q := len(nw.injectQ[v]); q > 0 {
			fmt.Fprintf(&b, " injectQ=%d", q)
		}
		for key := 0; key < nw.nin; key++ {
			r := &nw.keys[base+key]
			if r.count == 0 {
				continue
			}
			f := nw.front(r)
			name := "inject"
			if key < 2*nw.nports {
				name = fmt.Sprintf("dim%d%svc%d", key/4, map[bool]string{true: "+", false: "-"}[(key/2)%2 == 0], key%2)
			}
			fmt.Fprintf(&b, " %s=%dflits(head %d→%d age %d)",
				name, r.count, f.msg.Src, f.msg.Dst, nw.now-f.arrivedAt)
		}
		for key := 0; key < nw.nin; key++ {
			if owner := nw.keys[base+key].owner; owner != nil {
				fmt.Fprintf(&b, " owner[%d]=%d→%d", key, owner.Src, owner.Dst)
			}
		}
		b.WriteByte('\n')
	}
	if len(busyRouters) > maxRouters {
		fmt.Fprintf(&b, "  … %d more occupied routers elided\n", len(busyRouters)-maxRouters)
	}
	return b.String()
}
