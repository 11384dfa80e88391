package netsim

import (
	"slices"
	"testing"

	"locality/internal/topology"
)

// White-box tests for the routing internals: virtual-channel dateline
// discipline, minimal-direction tie balancing, and the precomputed
// neighbor table and dateline rule the hot path uses.

// crossesDateline is the coordinate-based reference for whether
// traversing port o out of router v crosses the ring's wraparound
// edge: coordinate k−1 → 0 in the positive direction, 0 → k−1 in the
// negative.
func crossesDateline(tor *topology.Torus, v, o int) bool {
	coord := tor.Coords(v)[o/2]
	if o%2 == 0 {
		return coord == tor.K()-1
	}
	return coord == 0
}

// tableCrossesDateline is the rule buildMove applies, on the neighbor
// table.
func tableCrossesDateline(nw *Network, v, o int) bool {
	return datelineHop(v, o, int(nw.nbr[v*nw.ports+o]))
}

func TestCrossesDateline(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	tests := []struct {
		coords []int
		port   int // 2·dim + (dir<0 ? 1 : 0)
		want   bool
	}{
		{[]int{7, 0}, 0, true},  // +x from x=7 wraps
		{[]int{6, 0}, 0, false}, // +x from x=6 does not
		{[]int{0, 0}, 1, true},  // −x from x=0 wraps
		{[]int{1, 0}, 1, false},
		{[]int{0, 7}, 2, true},  // +y from y=7 wraps
		{[]int{0, 7}, 0, false}, // +x unaffected by y coordinate
		{[]int{3, 0}, 3, true},  // −y from y=0 wraps
	}
	tor := topology.MustNew(8, 2)
	for _, tc := range tests {
		v := tor.ID(tc.coords)
		if got := crossesDateline(tor, v, tc.port); got != tc.want {
			t.Errorf("crossesDateline(%v, port %d) = %v, want %v", tc.coords, tc.port, got, tc.want)
		}
		if got := tableCrossesDateline(nw, v, tc.port); got != tc.want {
			t.Errorf("table dateline rule (%v, port %d) = %v, want %v", tc.coords, tc.port, got, tc.want)
		}
	}
}

// routeTopologies is the radix × dimension grid the route-table
// differential tests cover: k = 2 (both directions reach the same
// neighbor), odd radices (no halfway ties) and even ones.
func routeTopologies() []*topology.Torus {
	var tors []*topology.Torus
	for _, k := range []int{2, 3, 4, 5, 8} {
		for _, n := range []int{1, 2, 3} {
			tors = append(tors, topology.MustNew(k, n))
		}
	}
	return tors
}

func TestNeighborTableMatchesTopology(t *testing.T) {
	for _, tor := range routeTopologies() {
		nw, err := New(Config{Topo: tor, BufferDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < tor.Nodes(); v++ {
			for o := 0; o < nw.ports; o++ {
				dir := 1
				if o%2 == 1 {
					dir = -1
				}
				if got, want := int(nw.nbr[v*nw.ports+o]), tor.Neighbor(v, o/2, dir); got != want {
					t.Fatalf("%v: nbr[router %d, port %d] = %d, topology neighbor %d", tor, v, o, got, want)
				}
				if got, want := tableCrossesDateline(nw, v, o), crossesDateline(tor, v, o); got != want {
					t.Fatalf("%v: router %d port %d: table dateline rule %v, coordinate test %v", tor, v, o, got, want)
				}
			}
		}
	}
}

// expectedRoute is topology.Route with the fabric's halfway tie-break
// applied: Route resolves a tie toward the positive direction, while
// the fabric sends it negative when the ring coordinate is odd (see
// TestHalfwayTieBalanced).
func expectedRoute(tor *topology.Torus, src, dst int) []topology.Hop {
	hops := tor.Route(src, dst)
	for i := 0; i < len(hops); {
		dim := hops[i].Dim
		j := i
		for j < len(hops) && hops[j].Dim == dim {
			j++
		}
		ca, cb := tor.Coords(hops[i].From)[dim], tor.Coords(dst)[dim]
		if d := (cb - ca + tor.K()) % tor.K(); 2*d == tor.K() && ca%2 == 1 {
			cur := hops[i].From
			for h := i; h < j; h++ {
				next := tor.Neighbor(cur, dim, -1)
				hops[h] = topology.Hop{From: cur, To: next, Dim: dim, Dir: -1}
				cur = next
			}
		}
		i = j
	}
	return hops
}

// expectedVCs is the virtual channel of each hop under the dateline
// discipline, from the coordinate-based crossing oracle: VC0 on
// entering a dimension, VC1 after crossing that ring's dateline.
func expectedVCs(tor *topology.Torus, hops []topology.Hop) []int {
	vcs := make([]int, len(hops))
	dim, class := -1, 0
	for i, h := range hops {
		if h.Dim != dim {
			dim, class = h.Dim, 0
		}
		vcs[i] = class
		o := 2 * h.Dim
		if h.Dir < 0 {
			o++
		}
		if crossesDateline(tor, h.From, o) {
			class = 1
		}
	}
	return vcs
}

// headHops sends one message through an otherwise idle network and
// records the channel and virtual channel each of its head flit's hops
// took, read off the input buffer the head lands in after every Step.
func headHops(t *testing.T, nw *Network, src, dst int) ([]topology.Hop, []int) {
	t.Helper()
	msg := &Message{Src: src, Dst: dst, Size: 2}
	if err := nw.Send(msg); err != nil {
		t.Fatal(err)
	}
	var hops []topology.Hop
	var vcs []int
	at, in := src, nw.injectIn()
	for step := 0; !nw.Quiesced(); step++ {
		if step > 1000 {
			t.Fatalf("%d→%d did not deliver", src, dst)
		}
		nw.Step()
		for _, v32 := range nw.activeIDs {
			v := int(v32)
			for idx := 0; idx < nw.injectIn(); idx++ {
				q := &nw.in[v*nw.nin+idx]
				if q.empty() || q.peek().msg != msg || !q.peek().isHead() || (v == at && idx == in) {
					continue
				}
				o := idx / 2
				dir := 1
				if o%2 == 1 {
					dir = -1
				}
				hops = append(hops, topology.Hop{From: at, To: v, Dim: o / 2, Dir: dir})
				vcs = append(vcs, idx%2)
				at, in = v, idx
			}
		}
	}
	if msg.Hops != len(hops) {
		t.Fatalf("%d→%d: message counted %d hops, head was seen on %d", src, dst, msg.Hops, len(hops))
	}
	return hops, vcs
}

func TestLoneMessageFollowsTopologyRoute(t *testing.T) {
	for _, tor := range routeTopologies() {
		nw, err := New(Config{Topo: tor, BufferDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Every source on the small tori; a spread of sources on the
		// 512-node one keeps the test fast.
		stride := 1
		if tor.Nodes() > 125 {
			stride = 37
		}
		for src := 0; src < tor.Nodes(); src += stride {
			for dst := 0; dst < tor.Nodes(); dst++ {
				if src == dst {
					continue
				}
				got, vcs := headHops(t, nw, src, dst)
				want := expectedRoute(tor, src, dst)
				if !slices.Equal(got, want) {
					t.Fatalf("%v: %d→%d head hops %v, want %v", tor, src, dst, got, want)
				}
				if wantVCs := expectedVCs(tor, want); !slices.Equal(vcs, wantVCs) {
					t.Fatalf("%v: %d→%d hop virtual channels %v, want %v", tor, src, dst, vcs, wantVCs)
				}
			}
		}
		if err := nw.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVCForResetsAcrossDimensions(t *testing.T) {
	msg := &Message{curDim: 0, vcClass: 1}
	if vc := vcFor(msg, 0); vc != 1 {
		t.Errorf("same dimension should keep VC class: got %d", vc)
	}
	if vc := vcFor(msg, 2); vc != 0 {
		t.Errorf("new dimension should reset to VC0: got %d", vc)
	}
	fresh := &Message{curDim: -1}
	if vc := vcFor(fresh, 0); vc != 0 {
		t.Errorf("first hop should use VC0: got %d", vc)
	}
}

func TestWormSwitchesToVC1AfterDateline(t *testing.T) {
	// A message from x=6 to x=1 travels +x through the wrap edge:
	// hops 6→7 (VC0), 7→0 (VC0, crossing), 0→1 (VC1).
	nw := newNet(t, 8, 1, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	if err := nw.Send(&Message{Src: 6, Dst: 1, Size: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered == nil {
		t.Fatal("message lost")
	}
	if delivered.Hops != 3 {
		t.Fatalf("hops = %d, want 3", delivered.Hops)
	}
	if delivered.vcClass != 1 {
		t.Errorf("worm should end on VC1 after crossing the dateline, got class %d", delivered.vcClass)
	}
}

func TestWormStaysOnVC0WithoutWrap(t *testing.T) {
	nw := newNet(t, 8, 1, 4)
	var delivered *Message
	nw.SetDelivery(func(now int64, m *Message) { delivered = m })
	if err := nw.Send(&Message{Src: 1, Dst: 4, Size: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, nw, 1000)
	if delivered.vcClass != 0 {
		t.Errorf("worm without dateline crossing should stay on VC0, got class %d", delivered.vcClass)
	}
}

func TestHalfwayTieBalanced(t *testing.T) {
	// On an 8-ring, destinations exactly 4 away are reachable both
	// ways; the tie-break must send about half of the sources each
	// direction so channel load stays symmetric.
	nw := newNet(t, 8, 1, 4)
	pos, neg := 0, 0
	for src := 0; src < 8; src++ {
		dst := (src + 4) % 8
		port, eject := nw.outputPortFor(src, dst)
		if eject {
			t.Fatalf("src %d dst %d should not eject", src, dst)
		}
		switch port {
		case 0:
			pos++
		case 1:
			neg++
		default:
			t.Fatalf("unexpected port %d", port)
		}
	}
	if pos != 4 || neg != 4 {
		t.Errorf("tie split = %d positive / %d negative, want 4/4", pos, neg)
	}
}

func TestTieRouteConsistentPerPair(t *testing.T) {
	// All messages between the same endpoints must take the same route
	// (the coherence protocol relies on per-pair FIFO ordering).
	nw := newNet(t, 8, 2, 4)
	var hops []int
	nw.SetDelivery(func(now int64, m *Message) { hops = append(hops, m.Hops) })
	for i := 0; i < 5; i++ {
		if err := nw.Send(&Message{Src: 3, Dst: (3 + 4) % 8, Size: 6}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, nw, 10000)
	for _, h := range hops {
		if h != 4 {
			t.Errorf("hop count %d, want 4 (minimal both ways)", h)
		}
	}
}

func TestEjectionSharedFairly(t *testing.T) {
	// Two sources flood one destination; both must make progress (the
	// ejection port is arbitrated, not captured).
	nw := newNet(t, 8, 2, 4)
	bySrc := map[int]int{}
	nw.SetDelivery(func(now int64, m *Message) { bySrc[m.Src]++ })
	for i := 0; i < 30; i++ {
		if err := nw.Send(&Message{Src: 1, Dst: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
		if err := nw.Send(&Message{Src: 8, Dst: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, nw, 100000)
	if bySrc[1] != 30 || bySrc[8] != 30 {
		t.Fatalf("deliveries by source = %v, want 30 each", bySrc)
	}
}

func TestInjectionBackpressure(t *testing.T) {
	// A node can queue arbitrarily many messages, but the fabric
	// accepts only one flit per cycle: the send queue drains at channel
	// rate and nothing is lost.
	nw := newNet(t, 4, 2, 2)
	count := 0
	nw.SetDelivery(func(now int64, m *Message) { count++ })
	const n = 50
	for i := 0; i < n; i++ {
		if err := nw.Send(&Message{Src: 0, Dst: 1, Size: 12}); err != nil {
			t.Fatal(err)
		}
	}
	// 50 messages × 12 flits on one channel need ≥ 600 cycles.
	nw.Run(550)
	if nw.Quiesced() {
		t.Error("fabric drained implausibly fast for a single channel")
	}
	drain(t, nw, 10000)
	if count != n {
		t.Errorf("delivered %d, want %d", count, n)
	}
}
