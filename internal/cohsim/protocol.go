// Package cohsim implements a directory-based cache-coherence protocol
// engine in the style of the reference architecture's LimitLESS scheme:
// each cache line has a home node holding a directory entry with a
// bounded number of hardware sharer pointers; overflow falls back to a
// (modeled) software handler with an extra latency penalty. Caches run
// an MSI protocol. The engine is driven by a Transport (the network
// simulator in production, a loopback in tests) and exposes the
// transaction-level measurements (latency, messages per transaction,
// message sizes) the paper's models consume: communication transactions
// here are exactly the paper's cache coherency transactions.
//
// All protocol timing is in processor cycles; the machine layer
// converts network delivery times.
package cohsim

import (
	"fmt"

	"locality/internal/cachesim"
	"locality/internal/sim"
	"locality/internal/stats"
)

// MsgKind enumerates protocol message types.
type MsgKind uint8

const (
	// MsgRReq is a read request, requester → home (control).
	MsgRReq MsgKind = iota
	// MsgRData is a read-data reply, home → requester (data).
	MsgRData
	// MsgWReq is a write-ownership (or upgrade) request, requester →
	// home (control).
	MsgWReq
	// MsgWGrantData grants ownership with data, home → requester (data).
	MsgWGrantData
	// MsgWGrant grants ownership without data to a current sharer
	// (upgrade), home → requester (control).
	MsgWGrant
	// MsgInv invalidates a shared copy, home → sharer (control).
	MsgInv
	// MsgInvAck acknowledges an invalidation, sharer → home (control).
	MsgInvAck
	// MsgFetch asks the owner to write back and downgrade to Shared,
	// home → owner (control).
	MsgFetch
	// MsgFetchInv asks the owner to write back and invalidate, home →
	// owner (control).
	MsgFetchInv
	// MsgWBData carries data back to home in response to a fetch,
	// owner → home (data).
	MsgWBData
	// MsgWB is a victim writeback of a Modified line on eviction,
	// owner → home (data).
	MsgWB
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	names := [...]string{"RReq", "RData", "WReq", "WGrantData", "WGrant", "Inv", "InvAck", "Fetch", "FetchInv", "WBData", "WB"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// IsData reports whether the message carries a cache line.
func (k MsgKind) IsData() bool {
	switch k {
	case MsgRData, MsgWGrantData, MsgWBData, MsgWB:
		return true
	}
	return false
}

// Msg is one protocol message.
type Msg struct {
	Kind MsgKind
	Addr uint64
	// From is the sending node.
	From int
	// Txn is the transaction this message serves, when known by the
	// sender (requester-side messages); home-side messages recover the
	// transaction from directory state.
	Txn *Transaction
	// Seq identifies the home-side directory operation a message
	// belongs to. Home-initiated messages (Inv, Fetch, FetchInv) carry
	// the entry's operation sequence number and responses echo it, so
	// that with the retry layer active the home can discard stale
	// duplicates from retransmitted sub-operations. Zero on messages
	// outside a home operation (requests, grants, victim writebacks).
	Seq int64
}

// Transport delivers protocol messages between nodes. Implementations
// must eventually call Protocol.Deliver at the destination; messages
// between a node and itself must also be delivered (with whatever
// local latency the transport models) but are not network messages.
type Transport interface {
	Send(src, dst, sizeFlits int, m Msg)
}

// Transaction is one communication transaction: a processor-initiated
// coherence operation tracked from issue to completion.
type Transaction struct {
	ID    int64
	Node  int
	Addr  uint64
	Write bool
	// Started and Completed are in processor cycles.
	Started, Completed int64
	// NetMessages counts fabric messages (src ≠ dst) attributed to
	// this transaction, including invalidations, fetches and evictions
	// it triggered.
	NetMessages int
	// Retries counts requester-side retransmissions of this
	// transaction's request (retry layer only).
	Retries int
	done    bool
	waiters []int // threads at Node blocked on this transaction
	// pendingWrite is set when a write access coalesced onto an
	// outstanding read: the write transaction auto-issues on completion.
	pendingWrite bool
	// epoch increments each time the transaction's request is (re)issued
	// through issue; pending retry timers from earlier epochs cancel
	// themselves when they observe a newer epoch.
	epoch int32
}

// Config parameterizes the protocol engine.
type Config struct {
	// Nodes is the machine size.
	Nodes int
	// Cache configures each node's cache.
	Cache cachesim.Config
	// Home maps a line address to its home node.
	Home func(addr uint64) int
	// HWPointers is the number of hardware sharer pointers per
	// directory entry before the software-extension path triggers
	// (LimitLESS). Zero means a full-map directory (never traps).
	HWPointers int
	// ControlFlits and DataFlits are protocol message sizes.
	ControlFlits, DataFlits int

	// Latencies, in processor cycles.
	ReqLatency       int // miss detection → request injected
	DirLatency       int // request arrival at home → directory action
	MemLatency       int // extra for replies that read memory
	CacheRespLatency int // Inv/Fetch arrival → response injected
	FillLatency      int // data arrival at requester → transaction complete
	SWTrapLatency    int // extra home latency when the sharer set overflows
	// SendOccupancy serializes outgoing messages through each node's
	// controller: successive sends from one node are spaced at least
	// this many P-cycles apart. This is the controller occupancy of
	// the reference architecture's network interface; it also smooths
	// invalidation bursts the way a real controller does.
	SendOccupancy int

	// OnReady is invoked once per blocked thread when its transaction
	// completes.
	OnReady func(node, thread int, now int64)
	// OnComplete, if set, observes every completed transaction.
	OnComplete func(txn *Transaction)

	// Retry configures the loss-recovery layer. The zero value disables
	// it, leaving the engine behaviorally identical to the pre-retry
	// protocol (no timers are scheduled, no duplicate tolerance).
	Retry RetryConfig
	// Loss, when non-nil, is consulted for every fabric message (src ≠
	// dst) as it is handed to the transport; returning true drops the
	// message. Dropped messages still count as sent in the measured
	// quantities (they consumed controller occupancy and bandwidth at
	// the source) and are tallied separately in Stats.Dropped. Running
	// with Loss set but the retry layer disabled will hang transactions
	// — that configuration exists for watchdog tests.
	Loss func(src, dst int, m Msg) bool
}

// RetryConfig parameterizes the protocol's timeout/retransmit layer.
// With it enabled, every outstanding transaction carries a deadline:
// if the transaction has not completed when the deadline fires, the
// requester retransmits its request with exponential backoff. Home
// directory operations (invalidation fans, fetches) likewise retransmit
// their outstanding sub-operation messages. Duplicate-tolerance logic
// (idempotent re-grants, operation sequence numbers, writeback-buffer
// responses) keeps retransmission safe.
type RetryConfig struct {
	// Timeout is the base retransmission deadline in P-cycles. Zero
	// disables the retry layer entirely.
	Timeout int
	// BackoffMax caps the exponential backoff multiplier (default 16:
	// deadlines grow 1×, 2×, 4×, 8×, 16×, 16×, …).
	BackoffMax int
	// HomeTimeout is the deadline for home-initiated sub-operations;
	// defaults to Timeout.
	HomeTimeout int
}

func (c *Config) applyDefaults() {
	if c.ControlFlits == 0 {
		c.ControlFlits = 8
	}
	if c.DataFlits == 0 {
		c.DataFlits = 24
	}
	if c.ReqLatency == 0 {
		c.ReqLatency = 2
	}
	if c.DirLatency == 0 {
		c.DirLatency = 4
	}
	if c.MemLatency == 0 {
		c.MemLatency = 6
	}
	if c.CacheRespLatency == 0 {
		c.CacheRespLatency = 2
	}
	if c.FillLatency == 0 {
		c.FillLatency = 2
	}
	if c.SWTrapLatency == 0 {
		c.SWTrapLatency = 40
	}
	if c.SendOccupancy == 0 {
		c.SendOccupancy = 4
	}
	if c.Retry.Timeout > 0 {
		if c.Retry.BackoffMax == 0 {
			c.Retry.BackoffMax = 16
		}
		if c.Retry.HomeTimeout == 0 {
			c.Retry.HomeTimeout = c.Retry.Timeout
		}
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cohsim: node count %d, must be ≥ 1", c.Nodes)
	}
	if c.Home == nil {
		return fmt.Errorf("cohsim: nil Home function")
	}
	if c.HWPointers < 0 {
		return fmt.Errorf("cohsim: negative hardware pointer count %d", c.HWPointers)
	}
	if c.Retry.Timeout < 0 || c.Retry.BackoffMax < 0 || c.Retry.HomeTimeout < 0 {
		return fmt.Errorf("cohsim: negative retry parameter %+v", c.Retry)
	}
	if _, err := cachesim.New(c.Cache); err != nil {
		return err
	}
	return nil
}

// directory entry states.
type dirState uint8

const (
	dirIdle dirState = iota
	dirShared
	dirModified
)

// busy sub-states: a directory entry serving a multi-step operation.
type busyKind uint8

const (
	busyNone          busyKind = iota
	busyFetchRead              // fetch outstanding on behalf of a read
	busyFetchWrite             // fetch-invalidate outstanding on behalf of a write
	busyInvalidations          // invalidation acks outstanding for a write
	busyReply                  // a deferred reply is being composed/sent
)

type queuedReq struct {
	kind MsgKind
	from int
	txn  *Transaction
}

type dirEntry struct {
	addr    uint64
	state   dirState
	sharers []int
	owner   int
	busy    busyKind
	// pendingInv lists the sharers whose invalidation acks are still
	// outstanding for the current busyInvalidations operation.
	pendingInv []int
	// opSeq numbers this entry's home-side operations; messages the
	// operation sends carry it and responses echo it so the retry layer
	// can discard stale duplicates.
	opSeq int64
	// requester and txn identify the operation being served.
	requester int
	txn       *Transaction
	queue     []queuedReq
}

func (e *dirEntry) hasSharer(n int) bool {
	for _, s := range e.sharers {
		if s == n {
			return true
		}
	}
	return false
}

func (e *dirEntry) addSharer(n int) {
	if !e.hasSharer(n) {
		e.sharers = append(e.sharers, n)
	}
}

// outstanding tracks a node's in-flight transaction on a line (MSHR).
type outstanding struct {
	txn *Transaction
}

// node is the per-node protocol state.
type node struct {
	cache *cachesim.Cache
	dir   map[uint64]*dirEntry
	mshr  map[uint64]*outstanding
}

// actKind discriminates the scheduled protocol steps. Events hold
// plain action records rather than closures so the pending heap can be
// serialized into a checkpoint and rebuilt exactly on restore.
type actKind uint8

const (
	// actTransportSend hands a fully-accounted message to the transport
	// when the sending controller's occupancy slot arrives. node/peer
	// are src/dst; size is the flit count decided at send time.
	actTransportSend actKind = iota
	// actIssue sends a transaction's initial (or chained) request after
	// the miss-handling latency. node/peer are requester/home.
	actIssue
	// actRetry is a requester-side retransmission deadline for txn's
	// current epoch/attempt.
	actRetry
	// actHomeRetry is a home-side sub-operation deadline; node is the
	// home, addr the entry, seq the operation it guards.
	actHomeRetry
	// actHomeAction performs the directory transition for a request
	// after the directory (and any software-trap) latency. node/peer
	// are home/requester.
	actHomeAction
	// actSharerInv drops a shared copy and acknowledges after the cache
	// response latency. node/peer are sharer/home.
	actSharerInv
	// actOwnerFetch downgrades or invalidates at the owner and responds
	// with data. node/peer are owner/home; msgKind is the fetch kind.
	actOwnerFetch
	// actHomeReply sends a composed home reply and releases the entry.
	// node/peer are home/requester.
	actHomeReply
	// actGrantFill installs a granted line at the requester after the
	// fill latency. node is the requester; msgKind the grant kind.
	actGrantFill
)

// action is one serializable scheduled protocol step; which fields are
// meaningful depends on kind (see the actKind constants).
type action struct {
	kind    actKind
	node    int
	peer    int
	msgKind MsgKind
	addr    uint64
	txn     *Transaction
	seq     int64
	epoch   int32
	attempt int
	size    int
}

// event is a scheduled protocol action.
type event struct {
	due int64
	seq int64
	act action
}

// before orders events by (due, seq). seq is unique, so the order is
// total: any heap pops events in exactly one sequence.
func (e *event) before(o *event) bool {
	if e.due != o.due {
		return e.due < o.due
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events under before, typed so
// events are stored by value and never boxed.
type eventHeap []event

// push adds e, sifting a hole up from the new leaf.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the earliest event, sifting the last leaf
// down from the root.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// Protocol is the machine-wide coherence engine.
type Protocol struct {
	cfg       Config
	nodes     []node
	transport Transport
	events    eventHeap
	seq       int64
	txnSeq    int64
	now       int64
	// nextSend[n] is the earliest cycle node n's controller can send
	// its next message (send serialization).
	nextSend []int64

	// Statistics.
	txnCount    stats.Counter
	txnLatency  stats.Mean
	txnMsgs     stats.Mean
	netMsgs     stats.Counter
	kindCounts  [MsgWB + 1]stats.Counter // fabric messages by kind
	swTraps     stats.Counter
	readMiss    stats.Counter
	writeMiss   stats.Counter
	retries     stats.Counter // requester-side retransmissions
	homeRetries stats.Counter // home-side sub-operation retransmissions
	dropped     stats.Counter // fabric messages dropped by Loss
	completed   []*Transaction
	keepTxns    bool
}

// resilient reports whether the timeout/retransmit layer is active.
func (p *Protocol) resilient() bool { return p.cfg.Retry.Timeout > 0 }

// New builds the protocol engine. The transport is attached separately
// with SetTransport so the machine can wire circular references.
func New(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	// Per-node state materializes lazily: the nodes slice holds zero
	// values (nil cache, nil dir/MSHR maps) until a node is touched, so
	// construction cost and resident memory track touched nodes, not
	// machine size — the large zeroed slice is untouched OS pages.
	p := &Protocol{cfg: cfg, nodes: make([]node, cfg.Nodes), nextSend: make([]int64, cfg.Nodes)}
	return p, nil
}

// node returns node i, materializing its cache on first touch (the
// cache is itself sparse, so this is a handful of words). The dir and
// MSHR maps stay nil until their writers first insert; reads and
// deletes on nil maps are safe.
func (p *Protocol) node(i int) *node {
	n := &p.nodes[i]
	if n.cache == nil {
		n.cache = cachesim.MustNew(p.cfg.Cache)
	}
	return n
}

// setMSHR inserts an outstanding-transaction slot, creating the map on
// first use.
func (n *node) setMSHR(line uint64, out *outstanding) {
	if n.mshr == nil {
		n.mshr = make(map[uint64]*outstanding)
	}
	n.mshr[line] = out
}

// SetTransport attaches the message transport.
func (p *Protocol) SetTransport(t Transport) { p.transport = t }

// KeepTransactions makes the engine retain every completed transaction
// for post-run analysis (tests, measurement harness).
func (p *Protocol) KeepTransactions(keep bool) { p.keepTxns = keep }

// Completed returns retained transactions (see KeepTransactions).
func (p *Protocol) Completed() []*Transaction { return p.completed }

// Cache exposes a node's cache for workload setup and invariant checks.
func (p *Protocol) Cache(nodeID int) *cachesim.Cache { return p.node(nodeID).cache }

// schedule queues an action to run at now+delay processor cycles.
func (p *Protocol) schedule(delay int, a action) {
	p.seq++
	p.events.push(event{due: p.now + int64(delay), seq: p.seq, act: a})
}

// Tick advances protocol time to nowP, executing all due actions.
func (p *Protocol) Tick(nowP int64) {
	p.now = nowP
	for len(p.events) > 0 && p.events[0].due <= nowP {
		e := p.events.pop()
		p.fire(e.act, nowP)
	}
}

// fire executes one scheduled action. Each branch reproduces exactly
// what the pre-checkpoint closure for that site did; any state an
// action needs beyond its record is re-derived from protocol state
// (directory entries are never deleted, so entry lookups are stable).
func (p *Protocol) fire(a action, now int64) {
	switch a.kind {
	case actTransportSend:
		p.transport.Send(a.node, a.peer, a.size,
			Msg{Kind: a.msgKind, Addr: a.addr, From: a.node, Txn: a.txn, Seq: a.seq})
	case actIssue:
		p.send(a.node, a.peer, a.msgKind, a.addr, a.txn)
	case actRetry:
		txn := a.txn
		if txn.done || txn.epoch != a.epoch {
			return
		}
		out, ok := p.nodes[txn.Node].mshr[txn.Addr]
		if !ok || out.txn != txn {
			return
		}
		p.retries.Inc()
		txn.Retries++
		kind := MsgRReq
		if txn.Write {
			kind = MsgWReq
		}
		p.send(txn.Node, p.cfg.Home(txn.Addr), kind, txn.Addr, txn)
		p.armRetry(txn, a.epoch, a.attempt+1)
	case actHomeRetry:
		e := p.entry(a.node, a.addr)
		if e.opSeq != a.seq {
			return
		}
		switch e.busy {
		case busyInvalidations:
			for _, s := range e.pendingInv {
				p.sendSeq(a.node, s, MsgInv, e.addr, e.txn, a.seq)
			}
		case busyFetchRead:
			p.sendSeq(a.node, e.owner, MsgFetch, e.addr, e.txn, a.seq)
		case busyFetchWrite:
			p.sendSeq(a.node, e.owner, MsgFetchInv, e.addr, e.txn, a.seq)
		default:
			// The operation completed (or moved to reply composition);
			// nothing to retransmit.
			return
		}
		p.homeRetries.Inc()
		p.armHomeRetry(a.node, e, a.seq, a.attempt+1)
	case actHomeAction:
		p.homeAction(a.node, p.entry(a.node, a.addr), a.msgKind, a.peer, a.txn)
	case actSharerInv:
		p.node(a.node).cache.Invalidate(a.addr)
		p.sendSeq(a.node, a.peer, MsgInvAck, a.addr, a.txn, a.seq)
	case actOwnerFetch:
		cache := p.node(a.node).cache
		switch cache.Lookup(a.addr) {
		case cachesim.Modified:
			if a.msgKind == MsgFetch {
				cache.SetState(a.addr, cachesim.Shared)
			} else {
				cache.Invalidate(a.addr)
			}
		default:
			if !p.resilient() {
				// Eviction writeback crossed the fetch; nothing to do.
				return
			}
			// Resilient mode models a writeback buffer: the node can
			// always reproduce the data the home is fetching, whether the
			// line was evicted (its victim writeback may have been lost)
			// or a previous fetch response was lost after the line was
			// already demoted. Responding is idempotent at the home
			// because the response echoes the operation sequence number.
			if a.msgKind == MsgFetchInv {
				cache.Invalidate(a.addr)
			}
		}
		p.sendSeq(a.node, a.peer, MsgWBData, a.addr, a.txn, a.seq)
	case actHomeReply:
		e := p.entry(a.node, a.addr)
		p.send(a.node, a.peer, a.msgKind, a.addr, a.txn)
		e.busy = busyNone
		p.drainQueue(a.node, e)
	case actGrantFill:
		n := p.node(a.node)
		txn := a.txn
		if p.resilient() {
			// Retransmitted requests can draw duplicate grants; only the
			// grant matching the live transaction in its current phase
			// may complete it.
			out, ok := n.mshr[a.addr]
			if !ok || out.txn != txn || txn.done {
				return
			}
			wantWrite := a.msgKind == MsgWGrant || a.msgKind == MsgWGrantData
			if txn.Write != wantWrite {
				return // grant from the read phase of a chained read→write
			}
		}
		switch a.msgKind {
		case MsgRData:
			p.installLine(a.node, a.addr, cachesim.Shared, txn)
		case MsgWGrantData:
			p.installLine(a.node, a.addr, cachesim.Modified, txn)
		case MsgWGrant:
			if n.cache.Lookup(a.addr) != cachesim.Invalid {
				n.cache.SetState(a.addr, cachesim.Modified)
			} else {
				// The shared copy was displaced after the upgrade was
				// requested; treat the grant as carrying data.
				p.installLine(a.node, a.addr, cachesim.Modified, txn)
			}
		}
		p.completeTxn(a.node, txn, now)
	default:
		panic(fmt.Sprintf("cohsim: unknown action kind %d", a.kind))
	}
}

// NextEvent implements sim.Component: the due cycle of the earliest
// pending scheduled action — protocol hops, controller occupancy
// slots, and armed retry timers all live on the one event heap — or
// sim.Never when the heap is empty. Message deliveries arriving from
// the transport enqueue onto the heap with delay ≥ 1, so the heap min
// is always a complete account of the protocol's future work.
func (p *Protocol) NextEvent() int64 {
	if len(p.events) == 0 {
		return sim.Never
	}
	return p.events[0].due
}

// send transmits a protocol message, attributing fabric messages to
// txn. Outgoing messages serialize through the node's controller: each
// send occupies it for SendOccupancy cycles, so bursts (e.g. a fan of
// invalidations) are spaced rather than injected back to back.
func (p *Protocol) send(src, dst int, kind MsgKind, addr uint64, txn *Transaction) {
	p.sendSeq(src, dst, kind, addr, txn, 0)
}

// sendSeq is send with an explicit home-operation sequence number (see
// Msg.Seq). Fabric messages consult the Loss hook: a dropped message is
// fully accounted (controller occupancy, message counters) but never
// reaches the transport.
func (p *Protocol) sendSeq(src, dst int, kind MsgKind, addr uint64, txn *Transaction, seq int64) {
	size := p.cfg.ControlFlits
	if kind.IsData() {
		size = p.cfg.DataFlits
	}
	m := Msg{Kind: kind, Addr: addr, From: src, Txn: txn, Seq: seq}
	drop := false
	if src != dst {
		p.netMsgs.Inc()
		p.kindCounts[kind].Inc()
		if txn != nil {
			txn.NetMessages++
		}
		if p.cfg.Loss != nil && p.cfg.Loss(src, dst, m) {
			p.dropped.Inc()
			drop = true
		}
	}
	when := p.now
	if p.nextSend[src] > when {
		when = p.nextSend[src]
	}
	p.nextSend[src] = when + int64(p.cfg.SendOccupancy)
	if drop {
		return
	}
	if when <= p.now {
		p.transport.Send(src, dst, size, m)
		return
	}
	p.schedule(int(when-p.now), action{kind: actTransportSend, node: src, peer: dst, msgKind: kind, addr: addr, txn: txn, seq: seq, size: size})
}

// Access is the processor's entry point: thread on nodeID touches addr.
// It returns hit = true when the access completes immediately. On a
// miss the thread must block; OnReady fires when it may retry (the
// line is then present in the right state).
func (p *Protocol) Access(nodeID, thread int, addr uint64, write bool, now int64) (hit bool) {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if write {
		if n.cache.AccessWrite(addr) {
			return true
		}
	} else {
		if n.cache.AccessRead(addr) {
			return true
		}
	}
	// Coalesce with an outstanding transaction on the same line.
	if out, ok := n.mshr[line]; ok {
		out.txn.waiters = append(out.txn.waiters, thread)
		if write && !out.txn.Write {
			out.txn.pendingWrite = true
		}
		return false
	}
	txn := p.newTxn(nodeID, line, write, now)
	txn.waiters = append(txn.waiters, thread)
	n.setMSHR(line, &outstanding{txn: txn})
	p.issue(txn)
	return false
}

// Prefetch starts a non-binding read transaction for the line
// containing addr without blocking any thread: the data-prefetch
// latency-tolerance mechanism of Section 2.1. If the line is already
// present or a transaction is already outstanding it does nothing. A
// later Access to the line coalesces onto the in-flight prefetch and
// waits only for the remaining latency. It reports whether a new
// transaction was issued.
func (p *Protocol) Prefetch(nodeID int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if n.cache.Lookup(line) != cachesim.Invalid {
		return false
	}
	if _, ok := n.mshr[line]; ok {
		return false
	}
	txn := p.newTxn(nodeID, line, false, now)
	n.setMSHR(line, &outstanding{txn: txn})
	p.issue(txn)
	return true
}

// WriteBehind starts a non-blocking write-ownership transaction for
// the line containing addr: the weak-ordering latency-tolerance
// mechanism of Section 2.1. The issuing thread continues immediately;
// a later Access (typically from a fence draining outstanding writes)
// coalesces onto the in-flight transaction. If the line is already
// Modified nothing happens; if a read transaction is outstanding the
// write chains behind it. It reports whether new work was initiated.
func (p *Protocol) WriteBehind(nodeID int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	line := n.cache.LineAddr(addr)
	if n.cache.Lookup(line) == cachesim.Modified {
		return false
	}
	if out, ok := n.mshr[line]; ok {
		if !out.txn.Write && !out.txn.pendingWrite {
			out.txn.pendingWrite = true
			return true
		}
		return false
	}
	txn := p.newTxn(nodeID, line, true, now)
	n.setMSHR(line, &outstanding{txn: txn})
	p.issue(txn)
	return true
}

// Outstanding reports whether a transaction is in flight at nodeID for
// the line containing addr (used by fences).
func (p *Protocol) Outstanding(nodeID int, addr uint64) bool {
	n := p.node(nodeID)
	_, ok := n.mshr[n.cache.LineAddr(addr)]
	return ok
}

// Join registers thread as a waiter on the in-flight transaction for
// addr's line, if any, and reports whether the thread must block (the
// fence primitive for weak ordering). Without an in-flight transaction
// it returns false immediately.
func (p *Protocol) Join(nodeID, thread int, addr uint64, now int64) bool {
	p.now = now
	n := p.node(nodeID)
	out, ok := n.mshr[n.cache.LineAddr(addr)]
	if !ok {
		return false
	}
	out.txn.waiters = append(out.txn.waiters, thread)
	return true
}

// newTxn creates a miss transaction with the next machine-wide ID and
// counts the miss.
func (p *Protocol) newTxn(nodeID int, line uint64, write bool, now int64) *Transaction {
	p.txnSeq++
	if write {
		p.writeMiss.Inc()
	} else {
		p.readMiss.Inc()
	}
	return &Transaction{ID: p.txnSeq, Node: nodeID, Addr: line, Write: write, Started: now}
}

// issue sends the transaction's initial request after the miss-handling
// latency and, with the retry layer active, arms its retransmission
// deadline.
func (p *Protocol) issue(txn *Transaction) {
	home := p.cfg.Home(txn.Addr)
	kind := MsgRReq
	if txn.Write {
		kind = MsgWReq
	}
	p.schedule(p.cfg.ReqLatency, action{kind: actIssue, node: txn.Node, peer: home, msgKind: kind, addr: txn.Addr, txn: txn})
	if p.resilient() {
		txn.epoch++
		p.armRetry(txn, txn.epoch, 0)
	}
}

// backoffMult returns the capped exponential backoff multiplier for
// the given attempt number.
func (p *Protocol) backoffMult(attempt int) int {
	mult := 1
	for i := 0; i < attempt && mult < p.cfg.Retry.BackoffMax; i++ {
		mult *= 2
	}
	if mult > p.cfg.Retry.BackoffMax {
		mult = p.cfg.Retry.BackoffMax
	}
	return mult
}

// armRetry schedules the transaction's next retransmission deadline.
// When it fires, a transaction that is still outstanding in the same
// phase (epoch) retransmits its request and backs off exponentially;
// deadlines from superseded phases cancel themselves.
func (p *Protocol) armRetry(txn *Transaction, epoch int32, attempt int) {
	delay := p.cfg.ReqLatency + p.cfg.Retry.Timeout*p.backoffMult(attempt)
	p.schedule(delay, action{kind: actRetry, txn: txn, epoch: epoch, attempt: attempt})
}

// beginOp marks a directory entry busy with a new home-side operation
// and, with the retry layer active, arms the operation's
// retransmission deadline.
func (p *Protocol) beginOp(home int, e *dirEntry, kind busyKind) {
	e.busy = kind
	e.opSeq++
	if p.resilient() {
		p.armHomeRetry(home, e, e.opSeq, 0)
	}
}

// armHomeRetry schedules a deadline for the entry's current home-side
// operation: if the operation is still waiting when it fires, the home
// retransmits the operation's outstanding messages (the un-acked
// invalidations, or the fetch) with exponential backoff.
func (p *Protocol) armHomeRetry(home int, e *dirEntry, seq int64, attempt int) {
	delay := p.cfg.Retry.HomeTimeout * p.backoffMult(attempt)
	p.schedule(delay, action{kind: actHomeRetry, node: home, addr: e.addr, seq: seq, attempt: attempt})
}

// Deliver hands an arriving protocol message to its destination node.
// The machine layer calls this from the network delivery callback with
// the processor-cycle arrival time.
func (p *Protocol) Deliver(dst int, m Msg, nowP int64) {
	p.now = nowP
	switch m.Kind {
	case MsgRReq, MsgWReq:
		p.homeRequest(dst, m)
	case MsgRData, MsgWGrantData, MsgWGrant:
		p.requesterGrant(dst, m)
	case MsgInv:
		p.sharerInvalidate(dst, m)
	case MsgInvAck:
		p.homeInvAck(dst, m)
	case MsgFetch, MsgFetchInv:
		p.ownerFetch(dst, m)
	case MsgWBData, MsgWB:
		p.homeWriteback(dst, m)
	default:
		panic(fmt.Sprintf("cohsim: unknown message kind %v", m.Kind))
	}
}

// entry returns (creating if needed) the directory entry at home for a
// line.
func (p *Protocol) entry(home int, addr uint64) *dirEntry {
	n := &p.nodes[home]
	e, ok := n.dir[addr]
	if !ok {
		if n.dir == nil {
			n.dir = make(map[uint64]*dirEntry)
		}
		e = &dirEntry{addr: addr, owner: -1}
		n.dir[addr] = e
	}
	return e
}

// homeRequest processes an RReq or WReq arriving at the home node.
func (p *Protocol) homeRequest(home int, m Msg) {
	e := p.entry(home, m.Addr)
	if e.busy != busyNone {
		e.queue = append(e.queue, queuedReq{kind: m.Kind, from: m.From, txn: m.Txn})
		return
	}
	delay := p.cfg.DirLatency
	if p.overflowed(e) {
		delay += p.cfg.SWTrapLatency
		p.swTraps.Inc()
	}
	p.schedule(delay, action{kind: actHomeAction, node: home, peer: m.From, msgKind: m.Kind, addr: m.Addr, txn: m.Txn})
}

// overflowed reports whether the sharer set exceeds the hardware
// pointer budget (LimitLESS software-extension condition).
func (p *Protocol) overflowed(e *dirEntry) bool {
	return p.cfg.HWPointers > 0 && len(e.sharers) > p.cfg.HWPointers
}

// homeAction performs the directory state transition for a request.
func (p *Protocol) homeAction(home int, e *dirEntry, kind MsgKind, from int, txn *Transaction) {
	if e.busy != busyNone {
		// A writeback or race re-busied the entry while this action was
		// queued behind the directory latency; requeue.
		e.queue = append(e.queue, queuedReq{kind: kind, from: from, txn: txn})
		return
	}
	switch kind {
	case MsgRReq:
		switch e.state {
		case dirIdle, dirShared:
			e.state = dirShared
			e.addSharer(from)
			p.homeReply(home, e, p.cfg.MemLatency, from, MsgRData, txn)
		case dirModified:
			if p.resilient() && e.owner == from {
				// The recorded owner is read-requesting the line, which
				// can only mean its victim writeback was lost (per-pair
				// FIFO ordering rules out a stale duplicate here: any
				// old RReq would have arrived before the WReq that made
				// it owner). Memory still has a serviceable copy; demote
				// to Shared and re-grant.
				e.state = dirShared
				e.sharers = append(e.sharers[:0], from)
				e.owner = -1
				p.homeReply(home, e, p.cfg.MemLatency, from, MsgRData, txn)
				return
			}
			p.beginOp(home, e, busyFetchRead)
			e.requester = from
			e.txn = txn
			p.sendSeq(home, e.owner, MsgFetch, e.addr, txn, e.opSeq)
		}
	case MsgWReq:
		switch e.state {
		case dirIdle:
			e.state = dirModified
			e.owner = from
			p.homeReply(home, e, p.cfg.MemLatency, from, MsgWGrantData, txn)
		case dirShared:
			// Invalidate every other sharer, then grant.
			requesterHolds := e.hasSharer(from)
			var targets []int
			for _, s := range e.sharers {
				if s != from {
					targets = append(targets, s)
				}
			}
			if len(targets) == 0 {
				e.state = dirModified
				e.sharers = e.sharers[:0]
				e.owner = from
				grant := MsgWGrantData
				if requesterHolds {
					grant = MsgWGrant
				}
				p.homeReply(home, e, p.cfg.MemLatency, from, grant, txn)
				return
			}
			p.beginOp(home, e, busyInvalidations)
			e.pendingInv = append(e.pendingInv[:0], targets...)
			e.requester = from
			e.txn = txn
			for _, s := range targets {
				p.sendSeq(home, s, MsgInv, e.addr, txn, e.opSeq)
			}
		case dirModified:
			if p.resilient() && e.owner == from {
				// Either the previous grant was lost (the requester is
				// retrying) or this is a late duplicate of a request
				// already served; re-granting is correct and idempotent
				// in both cases.
				p.homeReply(home, e, p.cfg.MemLatency, from, MsgWGrantData, txn)
				return
			}
			p.beginOp(home, e, busyFetchWrite)
			e.requester = from
			e.txn = txn
			p.sendSeq(home, e.owner, MsgFetchInv, e.addr, txn, e.opSeq)
		}
	default:
		panic(fmt.Sprintf("cohsim: homeAction on %v", kind))
	}
}

// sharerInvalidate handles MsgInv at a sharer: drop the copy (if still
// present; it may have been silently evicted) and acknowledge.
func (p *Protocol) sharerInvalidate(nodeID int, m Msg) {
	p.schedule(p.cfg.CacheRespLatency, action{kind: actSharerInv, node: nodeID, peer: m.From, addr: m.Addr, txn: m.Txn, seq: m.Seq})
}

// homeInvAck counts invalidation acknowledgments; the last one grants
// ownership to the waiting writer.
func (p *Protocol) homeInvAck(home int, m Msg) {
	e := p.entry(home, m.Addr)
	if e.busy != busyInvalidations {
		if p.resilient() {
			// Late ack for an invalidation round that already completed
			// (the sharer acked a retransmitted Inv as well).
			return
		}
		panic(fmt.Sprintf("cohsim: unexpected InvAck at home %d addr %#x (busy=%d)", home, m.Addr, e.busy))
	}
	if p.resilient() && m.Seq != e.opSeq {
		return // ack from a superseded invalidation round
	}
	found := false
	for i, s := range e.pendingInv {
		if s == m.From {
			e.pendingInv = append(e.pendingInv[:i], e.pendingInv[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		if p.resilient() {
			return // duplicate ack within the current round
		}
		panic(fmt.Sprintf("cohsim: InvAck from non-pending node %d at home %d addr %#x", m.From, home, m.Addr))
	}
	if len(e.pendingInv) > 0 {
		return
	}
	requesterHolds := e.hasSharer(e.requester)
	e.state = dirModified
	e.sharers = e.sharers[:0]
	e.owner = e.requester
	e.busy = busyNone
	grant := MsgWGrantData
	if requesterHolds {
		grant = MsgWGrant
	}
	p.send(home, e.requester, grant, m.Addr, e.txn)
	p.drainQueue(home, e)
}

// ownerFetch handles Fetch/FetchInv at the (former) owner. If the line
// was already evicted the writeback in flight will satisfy the home.
func (p *Protocol) ownerFetch(nodeID int, m Msg) {
	p.schedule(p.cfg.CacheRespLatency, action{kind: actOwnerFetch, node: nodeID, peer: m.From, msgKind: m.Kind, addr: m.Addr, txn: m.Txn, seq: m.Seq})
}

// homeWriteback handles WBData (fetch response) and WB (victim
// writeback) at the home node.
func (p *Protocol) homeWriteback(home int, m Msg) {
	e := p.entry(home, m.Addr)
	switch e.busy {
	case busyFetchRead:
		if p.resilient() && m.Seq != e.opSeq {
			return // stale response (or a crossing victim WB); the fetch response will follow
		}
		e.state = dirShared
		e.sharers = append(e.sharers[:0], e.owner, e.requester)
		e.owner = -1
		p.homeReply(home, e, p.cfg.MemLatency, e.requester, MsgRData, e.txn)
	case busyFetchWrite:
		if p.resilient() && m.Seq != e.opSeq {
			return
		}
		e.state = dirModified
		e.sharers = e.sharers[:0]
		e.owner = e.requester
		p.homeReply(home, e, p.cfg.MemLatency, e.requester, MsgWGrantData, e.txn)
	default:
		if p.resilient() && m.Seq != 0 {
			// Duplicate fetch response for an operation that already
			// completed (the owner answered both the original fetch and a
			// retransmission).
			return
		}
		// Victim writeback with no operation outstanding.
		if e.state == dirModified && e.owner == m.From {
			e.state = dirIdle
			e.owner = -1
		}
		p.drainQueue(home, e)
	}
}

// homeReply keeps the directory entry busy while a deferred reply is
// composed, sends it, then releases the entry. Serving the next queued
// request only after the reply is on the wire (together with the
// transport's per source-destination FIFO ordering) guarantees that a
// later fetch or invalidation can never overtake the grant it depends
// on.
func (p *Protocol) homeReply(home int, e *dirEntry, delay, dst int, kind MsgKind, txn *Transaction) {
	e.busy = busyReply
	p.schedule(delay, action{kind: actHomeReply, node: home, peer: dst, msgKind: kind, addr: e.addr, txn: txn})
}

// drainQueue re-dispatches requests that queued while the entry was
// busy. Each dispatched request may re-busy the entry, leaving the
// remainder queued.
func (p *Protocol) drainQueue(home int, e *dirEntry) {
	for e.busy == busyNone && len(e.queue) > 0 {
		q := e.queue[0]
		e.queue = e.queue[1:]
		p.homeAction(home, e, q.kind, q.from, q.txn)
	}
}

// requesterGrant completes a transaction at the requester: install or
// upgrade the line, wake the blocked threads.
func (p *Protocol) requesterGrant(nodeID int, m Msg) {
	p.schedule(p.cfg.FillLatency, action{kind: actGrantFill, node: nodeID, msgKind: m.Kind, addr: m.Addr, txn: m.Txn})
}

// installLine installs a line, emitting a victim writeback for any
// Modified line it displaces (attributed to the causing transaction).
func (p *Protocol) installLine(nodeID int, addr uint64, s cachesim.State, txn *Transaction) {
	ev, had := p.node(nodeID).cache.Install(addr, s)
	if had && ev.State == cachesim.Modified {
		p.send(nodeID, p.cfg.Home(ev.LineAddr), MsgWB, ev.LineAddr, txn)
	}
}

// completeTxn finalizes a transaction, wakes its waiters, and chains a
// coalesced write if one arrived while a read was outstanding.
func (p *Protocol) completeTxn(nodeID int, txn *Transaction, now int64) {
	if txn.done {
		panic(fmt.Sprintf("cohsim: transaction %d completed twice", txn.ID))
	}
	n := &p.nodes[nodeID]
	if txn.pendingWrite {
		// A write coalesced behind this read: issue the upgrade now,
		// carrying the waiters along. Statistics count the chained
		// operation as part of one logical transaction.
		txn.pendingWrite = false
		txn.Write = true
		p.issue(txn)
		return
	}
	txn.done = true
	txn.Completed = now
	delete(n.mshr, txn.Addr)
	p.txnCount.Inc()
	p.txnLatency.Add(float64(txn.Completed - txn.Started))
	p.txnMsgs.Add(float64(txn.NetMessages))
	if p.keepTxns {
		p.completed = append(p.completed, txn)
	}
	if p.cfg.OnComplete != nil {
		p.cfg.OnComplete(txn)
	}
	for _, thread := range txn.waiters {
		if p.cfg.OnReady != nil {
			p.cfg.OnReady(nodeID, thread, now)
		}
	}
	txn.waiters = nil
}

// ResetStats zeroes the accumulated statistics (and retained
// transactions) without disturbing protocol state, so a measurement
// window can exclude warmup.
func (p *Protocol) ResetStats() {
	for i := range p.kindCounts {
		p.kindCounts[i] = stats.Counter{}
	}
	p.txnCount = stats.Counter{}
	p.txnLatency = stats.Mean{}
	p.txnMsgs = stats.Mean{}
	p.netMsgs = stats.Counter{}
	p.swTraps = stats.Counter{}
	p.readMiss = stats.Counter{}
	p.writeMiss = stats.Counter{}
	p.retries = stats.Counter{}
	p.homeRetries = stats.Counter{}
	p.dropped = stats.Counter{}
	p.completed = nil
}

// Stats is a snapshot of protocol-level measurements.
type Stats struct {
	Transactions  int64
	ReadMisses    int64
	WriteMisses   int64
	AvgTxnLatency float64 // P-cycles, issue to completion
	AvgTxnMsgs    float64 // fabric messages per transaction (g)
	NetMessages   int64
	SWTraps       int64
	Retries       int64 // requester-side request retransmissions
	HomeRetries   int64 // home-side sub-operation retransmissions
	Dropped       int64 // fabric messages lost to injected faults
}

// KindCount returns how many fabric messages of the given kind have
// been sent since the last ResetStats.
func (p *Protocol) KindCount(k MsgKind) int64 {
	return p.kindCounts[k].Value()
}

// Snapshot returns current aggregate statistics.
func (p *Protocol) Snapshot() Stats {
	return Stats{
		Transactions:  p.txnCount.Value(),
		ReadMisses:    p.readMiss.Value(),
		WriteMisses:   p.writeMiss.Value(),
		AvgTxnLatency: p.txnLatency.Mean(),
		AvgTxnMsgs:    p.txnMsgs.Mean(),
		NetMessages:   p.netMsgs.Value(),
		SWTraps:       p.swTraps.Value(),
		Retries:       p.retries.Value(),
		HomeRetries:   p.homeRetries.Value(),
		Dropped:       p.dropped.Value(),
	}
}

// OldestTxn returns the in-flight transaction that started earliest
// (ties broken by ID), or nil when none is outstanding. The machine
// watchdog uses it to name the stuck work in a stall report.
func (p *Protocol) OldestTxn() *Transaction {
	var oldest *Transaction
	for i := range p.nodes {
		for _, out := range p.nodes[i].mshr {
			t := out.txn
			if oldest == nil || t.Started < oldest.Started ||
				(t.Started == oldest.Started && t.ID < oldest.ID) {
				oldest = t
			}
		}
	}
	return oldest
}

// DirectoryInfo describes a directory entry for invariant checks.
type DirectoryInfo struct {
	State   string
	Sharers []int
	Owner   int
	Busy    bool
	Queued  int
}

// Directory returns the directory entry view for a line at its home,
// or a zero Info when the line has never been referenced.
func (p *Protocol) Directory(addr uint64) DirectoryInfo {
	home := p.cfg.Home(addr)
	e, ok := p.nodes[home].dir[addr]
	if !ok {
		return DirectoryInfo{State: "idle", Owner: -1}
	}
	names := map[dirState]string{dirIdle: "idle", dirShared: "shared", dirModified: "modified"}
	return DirectoryInfo{
		State:   names[e.state],
		Sharers: append([]int(nil), e.sharers...),
		Owner:   e.owner,
		Busy:    e.busy != busyNone,
		Queued:  len(e.queue),
	}
}

// Idle reports whether no protocol activity is pending (no scheduled
// events, no outstanding transactions, no busy directory entries).
func (p *Protocol) Idle() bool {
	if len(p.events) > 0 {
		return false
	}
	for i := range p.nodes {
		if len(p.nodes[i].mshr) > 0 {
			return false
		}
		for _, e := range p.nodes[i].dir {
			if e.busy != busyNone || len(e.queue) > 0 {
				return false
			}
		}
	}
	return true
}
