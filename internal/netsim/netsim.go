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
// Per-switch state lives in flat structure-of-arrays slices indexed by
// router, and Step iterates an active-router worklist instead of all N
// routers, so a mostly-idle fabric costs O(active switches) per cycle
// and an untouched switch costs no resident memory (large zeroed slices
// are backed by untouched pages). Both changes are behavior-preserving:
// see DESIGN.md §5i for the parity argument.
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

// fifo is a bounded flit queue (one switch input buffer). It is a value
// type so buffers pack into one flat slice per network; the ring
// storage is allocated lazily on first push, so the millions of
// never-touched buffers of a large mostly-idle fabric cost nothing.
// The depth is owned by the network and passed in where needed.
type fifo struct {
	buf   []flit
	head  int32
	count int32 // ≤ depth, which New bounds below 2³¹
}

func (q *fifo) full(depth int) bool { return int(q.count) == depth }
func (q *fifo) empty() bool         { return q.count == 0 }

func (q *fifo) push(f flit, depth int) {
	if int(q.count) == depth {
		panic("netsim: push to full buffer")
	}
	if q.buf == nil {
		q.buf = make([]flit, depth)
	}
	i := int(q.head) + int(q.count)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.count++
}

func (q *fifo) peek() flit {
	if q.empty() {
		panic("netsim: peek at empty buffer")
	}
	return q.buf[q.head]
}

func (q *fifo) pop() flit {
	f := q.peek()
	q.head++
	if int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.count--
	return f
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

// move is one committed flit transfer for the two-phase update.
type move struct {
	router  int
	input   int
	outKey  int
	release bool     // tail flit: release virtual output ownership
	acquire *Message // head flit granted the output this cycle
	crossed bool     // this hop crosses the dateline
	eject   bool
	dest    int // destination router for fabric moves
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
// Router state is stored structure-of-arrays: per-key state for router
// v lives at index v·nin+key (nin = 4n+1 inputs/keys per router) and
// per-port state at v·ports+o. The flat slices are allocated once in
// New; because a fresh large slice is zeroed pages the OS has not
// materialized, memory residency tracks the routers actually touched
// (the neighbor table, which New fills, is the one exception).
type Network struct {
	cfg   Config
	topo  *topology.Torus
	dims  int
	k     int
	ports int // directional physical ports per router (2·dims)
	nin   int // input buffers / virtual output keys per router (2·ports+1)
	nodes int

	// in[v·nin+key] is router v's input buffer for key (lazy storage).
	in []fifo
	// owner[v·nin+key] is the message holding virtual output key, or nil.
	owner []*Message
	// ownerInput[v·nin+key] is the input buffer index feeding that worm.
	ownerInput []int32
	// lastGranted[v·nin+key] rotates arbitration among inputs for a key.
	lastGranted []int32
	// lastVC[v·ports+o] rotates the physical channel between its two VCs.
	lastVC []uint8
	// nbr[v·ports+o] is the router on the far side of port o of router
	// v, precomputed so the per-flit path does no coordinate division.
	nbr []int32

	// routerFlits[v] counts flits buffered across all of router v's
	// inputs, for O(1) occupancy checks.
	routerFlits []int32
	// occ[v] is a bitmask over router v's input buffers: bit idx is set
	// iff in[v·nin+idx] is non-empty. Two words cover every legal
	// topology (nin = 4n+1 ≤ 125 for n ≤ 31). decide consults it so a
	// router's cost tracks its occupied inputs, not nin².
	occ [][2]uint64
	// own[v] is a bitmask over router v's virtual output keys: bit key
	// is set iff owner[v·nin+key] is non-nil. decide ORs it into its
	// candidate-key mask instead of scanning owner.
	own [][2]uint64
	// headReq is decide's per-router scratch: headReq[idx] is the
	// virtual output key requested by the arrived head flit at input
	// idx, or -1. Filled from occ at the top of each router's decide.
	headReq []int16

	// Active-router worklist: v is on it iff it holds buffered flits or
	// queued injections. Sorted ascending at the top of every Step so
	// iteration visits routers in exactly the order the dense sweep
	// did; activeDirty marks out-of-order appends made mid-cycle.
	activeIDs   []int32
	isActive    []bool
	activeDirty bool
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
		cfg:         cfg,
		topo:        cfg.Topo,
		dims:        dims,
		k:           cfg.Topo.K(),
		ports:       ports,
		nin:         nin,
		nodes:       n,
		in:          make([]fifo, n*nin),
		owner:       make([]*Message, n*nin),
		ownerInput:  make([]int32, n*nin),
		lastGranted: make([]int32, n*nin),
		lastVC:      make([]uint8, n*ports),
		nbr:         make([]int32, n*ports),
		routerFlits: make([]int32, n),
		occ:         make([][2]uint64, n),
		own:         make([][2]uint64, n),
		headReq:     make([]int16, nin),
		isActive:    make([]bool, n),
		injectQ:     make([][]*Message, n),
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
					nw.nbr[v*ports+2*dim] = int32(v + plus)
					nw.nbr[v*ports+2*dim+1] = int32(v + minus)
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
func (nw *Network) ejectKey() int { return 2 * nw.ports }

// injectIn is the input buffer index of the injection port.
func (nw *Network) injectIn() int { return 2 * nw.ports }

// setOcc marks input idx of router v occupied.
func (nw *Network) setOcc(v, idx int) {
	nw.occ[v][idx>>6] |= 1 << (idx & 63)
}

// clrOcc marks input idx of router v empty.
func (nw *Network) clrOcc(v, idx int) {
	nw.occ[v][idx>>6] &^= 1 << (idx & 63)
}

// pushFlit appends f to input idx of router v, caching a head flit's
// requested output key for that router, and records the occupancy.
func (nw *Network) pushFlit(v, idx int, f flit) {
	if f.isHead() {
		f.key = int32(nw.requestKey(v, f.msg))
	}
	nw.in[v*nw.nin+idx].push(f, nw.cfg.BufferDepth)
	nw.setOcc(v, idx)
	nw.routerFlits[v]++
}

// activate puts router v on the worklist if it is not already there.
func (nw *Network) activate(v int) {
	if nw.isActive[v] {
		return
	}
	nw.isActive[v] = true
	if n := len(nw.activeIDs); n > 0 && nw.activeIDs[n-1] > int32(v) {
		nw.activeDirty = true
	}
	nw.activeIDs = append(nw.activeIDs, int32(v))
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
	if nw.activeDirty {
		slices.Sort(nw.activeIDs)
		nw.activeDirty = false
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
	channels := nw.nodes * nw.ports
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
		if nw.in[v*nw.nin+nw.injectIn()].full(nw.cfg.BufferDepth) {
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
// the same order.
func (nw *Network) decide() {
	nw.moves = nw.moves[:0]
	for _, v32 := range nw.activeIDs {
		v := int(v32)
		if nw.routerFlits[v] == 0 {
			continue
		}
		base := v * nw.nin
		// Gather phase: peek each occupied input once, recording which
		// virtual output key its arrived head flit requests. A key can
		// grant a transfer this cycle only if some head requests it or
		// a worm already owns it, so the arbitration below skips every
		// other key without consulting any buffer — skipped keys would
		// have decided nothing and mutated nothing.
		for i := range nw.headReq {
			nw.headReq[i] = -1
		}
		var avail [2]uint64
		for w := 0; w < 2; w++ {
			m := nw.occ[v][w]
			for m != 0 {
				idx := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				f := nw.in[base+idx].peek()
				if !f.isHead() || f.arrivedAt >= nw.now {
					continue
				}
				nw.headReq[idx] = int16(f.key)
				avail[f.key>>6] |= 1 << (f.key & 63)
			}
		}
		avail[0] |= nw.own[v][0]
		avail[1] |= nw.own[v][1]
		// Directional physical channels: arbitrate between the two VCs.
		for o := 0; o < nw.ports; o++ {
			if avail[(o*2)>>6]&(3<<((o*2)&63)) == 0 {
				// Neither VC of this port can grant. The two keys o·2
				// and o·2+1 share a mask word: o·2 is even, so its bit
				// position within the word is at most 62.
				continue
			}
			if nw.cfg.Faults != nil && nw.downAt[v*nw.ports+o] == nw.now+1 {
				// The channel is faulted this cycle: neither VC may
				// transfer a flit; worms stall in place.
				continue
			}
			firstVC := 1 - int(nw.lastVC[v*nw.ports+o])
			granted := false
			for attempt := 0; attempt < 2 && !granted; attempt++ {
				vc := firstVC ^ attempt
				key := o*2 + vc
				if avail[key>>6]&(1<<(key&63)) == 0 {
					continue
				}
				if nw.decideVirtualOutput(v, key) {
					nw.lastVC[v*nw.ports+o] = uint8(vc)
					granted = true
				}
			}
		}
		// Ejection port.
		ek := nw.ejectKey()
		if avail[ek>>6]&(1<<(ek&63)) != 0 {
			nw.decideVirtualOutput(v, ek)
		}
	}
}

// decideVirtualOutput picks the flit (if any) to send through virtual
// output key this cycle at router v, appending its move to nw.moves.
// It reports whether a move was appended.
func (nw *Network) decideVirtualOutput(v, key int) bool {
	base := v * nw.nin
	if owner := nw.owner[base+key]; owner != nil {
		input := int(nw.ownerInput[base+key])
		in := &nw.in[base+input]
		if in.empty() {
			return false
		}
		f := in.peek()
		if f.msg != owner || f.arrivedAt >= nw.now {
			return false
		}
		return nw.buildMove(v, input, key, f, nil)
	}
	// Arbitrate among input buffers whose head flit requests this key,
	// consulting the gather phase's per-input request table instead of
	// re-peeking every buffer (same skip conditions, same round-robin
	// order).
	start := int(nw.lastGranted[base+key])
	for i := 1; i <= nw.nin; i++ {
		idx := (start + i) % nw.nin
		if nw.headReq[idx] != int16(key) {
			continue
		}
		f := nw.in[base+idx].peek()
		if !nw.buildMove(v, idx, key, f, f.msg) {
			// The downstream buffer is full; no other input can use
			// this key more productively this cycle.
			return false
		}
		nw.lastGranted[base+key] = int32(idx)
		return true
	}
	return false
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

// buildMove checks downstream capacity for a candidate transfer and,
// when there is room, appends the move to nw.moves in place. acquire is
// the head flit's message when the transfer claims the output, else
// nil. It reports whether a move was appended.
func (nw *Network) buildMove(v, input, key int, f flit, acquire *Message) bool {
	if key == nw.ejectKey() {
		// The node sinks one flit per cycle unconditionally.
		nw.moves = append(nw.moves, move{router: v, input: input, outKey: key, release: f.isTail(), acquire: acquire, eject: true})
		return true
	}
	o := key / 2
	next := int(nw.nbr[v*nw.ports+o])
	if nw.in[next*nw.nin+key].full(nw.cfg.BufferDepth) {
		return false
	}
	nw.moves = append(nw.moves, move{
		router:  v,
		input:   input,
		outKey:  key,
		release: f.isTail(),
		acquire: acquire,
		dest:    next,
		crossed: datelineHop(v, o, next),
	})
	return true
}

// commit applies the decided transfers.
func (nw *Network) commit() {
	if len(nw.moves) > 0 {
		nw.lastProgress = nw.now
	}
	for i := range nw.moves {
		mv := &nw.moves[i]
		base := mv.router * nw.nin
		f := nw.in[base+mv.input].pop()
		if nw.in[base+mv.input].empty() {
			nw.clrOcc(mv.router, mv.input)
		}
		nw.routerFlits[mv.router]--
		if mv.acquire != nil {
			nw.owner[base+mv.outKey] = mv.acquire
			nw.ownerInput[base+mv.outKey] = int32(mv.input)
			nw.own[mv.router][mv.outKey>>6] |= 1 << (mv.outKey & 63)
			if !mv.eject {
				// Update the worm's dateline state as its head
				// advances; body flits inherit the reserved path.
				// outKey = 4·dim + 2·(dir<0 ? 1 : 0) + vc.
				if newDim := mv.outKey / 4; f.msg.curDim != newDim {
					f.msg.curDim = newDim
					f.msg.vcClass = 0
				}
				if mv.crossed {
					f.msg.vcClass = 1
				}
			}
		}
		if mv.release {
			nw.owner[base+mv.outKey] = nil
			nw.own[mv.router][mv.outKey>>6] &^= 1 << (mv.outKey & 63)
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
		nw.pushFlit(mv.dest, mv.outKey, f)
		// A flit arriving this cycle cannot move before the next one
		// (the arrivedAt >= now guard), so activating the destination
		// now — for the next cycle's worklist — is timing-exact.
		nw.activate(mv.dest)
	}
}

// compactActive drops drained routers from the worklist: a router with
// no buffered flits and no queued injections contributes nothing to
// any future cycle until traffic re-activates it. Its persistent
// arbitration rotors (lastGranted, lastVC) and any stretched-worm
// output ownership stay in the flat arrays, untouched, exactly as a
// dense sweep would leave them.
func (nw *Network) compactActive() {
	if nw.forceDense {
		return
	}
	kept := nw.activeIDs[:0]
	for _, v32 := range nw.activeIDs {
		v := int(v32)
		if nw.routerFlits[v] > 0 || len(nw.injectQ[v]) > 0 {
			kept = append(kept, v32)
		} else {
			nw.isActive[v] = false
		}
	}
	nw.activeIDs = kept
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
		total += int(nw.routerFlits[v])
	}
	return total
}

// Check verifies the fabric's structural invariants: flit conservation
// (every flit ever accepted has either been ejected or is buffered in
// a switch), the queued-message counter, the per-router flit counts,
// input-occupancy and owned-output masks, every buffered head flit's
// cached output key, and the active-worklist invariant — the worklist
// holds exactly the routers with buffered flits or queued injections
// (every such router, no drained ones, no duplicates). Watchdog,
// fault, and restore code call this so no code path can silently leak
// flits or corrupt the worklist or the routing caches. O(N·nin +
// buffered flits), so not for per-cycle hot paths.
func (nw *Network) Check() error {
	var inFlight int64
	for v := 0; v < nw.nodes; v++ {
		sum := int32(0)
		var occ, own [2]uint64
		for key := 0; key < nw.nin; key++ {
			in := &nw.in[v*nw.nin+key]
			if in.count > 0 {
				sum += in.count
				occ[key>>6] |= 1 << (key & 63)
			}
			for n := int32(0); n < in.count; n++ {
				f := in.buf[(int(in.head)+int(n))%len(in.buf)]
				if !f.isHead() {
					continue
				}
				if want := nw.requestKey(v, f.msg); int(f.key) != want {
					return fmt.Errorf("netsim: router %d input %d head flit %d→%d caches output key %d at cycle %d, route requests %d",
						v, key, f.msg.Src, f.msg.Dst, f.key, nw.now, want)
				}
			}
			if nw.owner[v*nw.nin+key] != nil {
				own[key>>6] |= 1 << (key & 63)
			}
		}
		if sum != nw.routerFlits[v] {
			return fmt.Errorf("netsim: router %d flit count drifted at cycle %d: counter %d, buffers hold %d",
				v, nw.now, nw.routerFlits[v], sum)
		}
		if occ != nw.occ[v] {
			return fmt.Errorf("netsim: router %d input-occupancy mask drifted at cycle %d: mask %x, buffers %x",
				v, nw.now, nw.occ[v], occ)
		}
		if own != nw.own[v] {
			return fmt.Errorf("netsim: router %d owned-output mask drifted at cycle %d: mask %x, owners %x",
				v, nw.now, nw.own[v], own)
		}
		occupied := sum > 0 || len(nw.injectQ[v]) > 0
		if occupied && !nw.isActive[v] {
			return fmt.Errorf("netsim: router %d holds traffic at cycle %d but is missing from the active worklist", v, nw.now)
		}
		if !occupied && nw.isActive[v] && !nw.forceDense {
			return fmt.Errorf("netsim: drained router %d left on the active worklist at cycle %d", v, nw.now)
		}
		inFlight += int64(sum)
	}
	if nw.flitsIn != nw.flitsOut+inFlight {
		return fmt.Errorf("netsim: flit conservation violated at cycle %d: injected %d != delivered %d + in-flight %d",
			nw.now, nw.flitsIn, nw.flitsOut, inFlight)
	}
	q := 0
	active := 0
	for v := 0; v < nw.nodes; v++ {
		q += len(nw.injectQ[v])
		if nw.isActive[v] {
			active++
		}
	}
	if q != nw.queued {
		return fmt.Errorf("netsim: queued-message count drifted at cycle %d: counter %d, queues hold %d",
			nw.now, nw.queued, q)
	}
	for _, v := range nw.activeIDs {
		if v < 0 || int(v) >= nw.nodes || !nw.isActive[v] {
			return fmt.Errorf("netsim: stale worklist entry %d at cycle %d", v, nw.now)
		}
	}
	if len(nw.activeIDs) != active {
		return fmt.Errorf("netsim: worklist holds %d entries but %d routers are marked active at cycle %d",
			len(nw.activeIDs), active, nw.now)
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
		if nw.routerFlits[v] > 0 || len(nw.injectQ[v]) > 0 {
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
			in := &nw.in[base+key]
			if in.empty() {
				continue
			}
			f := in.peek()
			name := "inject"
			if key < 2*nw.ports {
				name = fmt.Sprintf("dim%d%svc%d", key/4, map[bool]string{true: "+", false: "-"}[(key/2)%2 == 0], key%2)
			}
			fmt.Fprintf(&b, " %s=%dflits(head %d→%d age %d)",
				name, in.count, f.msg.Src, f.msg.Dst, nw.now-f.arrivedAt)
		}
		for key := 0; key < nw.nin; key++ {
			if owner := nw.owner[base+key]; owner != nil {
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
