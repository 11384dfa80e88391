package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"locality/internal/faults"
	"locality/internal/topology"
)

// twinNets builds two identical networks, one driven by the active
// worklist and one forced to the dense reference sweep, with fresh
// fault models when spec is non-nil (each twin needs its own RNG
// state).
func twinNets(t *testing.T, k, n, depth int, spec *faults.Spec) (active, dense *Network) {
	t.Helper()
	build := func() *Network {
		tor := topology.MustNew(k, n)
		var fm LinkFaultModel
		if spec != nil {
			fm = faults.NewLinkFaults(*spec, tor.ChannelCount())
		}
		nw, err := New(Config{Topo: tor, BufferDepth: depth, Faults: fm})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	active, dense = build(), build()
	dense.forceDenseSweep()
	return active, dense
}

// sendRandom drives identical randomized traffic into both networks.
func sendRandom(t *testing.T, rng *rand.Rand, nets ...*Network) {
	t.Helper()
	nodes := nets[0].nodes
	src, dst := rng.Intn(nodes), rng.Intn(nodes)
	size := 1 + rng.Intn(10)
	for _, nw := range nets {
		if err := nw.Send(&Message{Src: src, Dst: dst, Size: size}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestActiveSetMatchesDenseSweep is the worklist's core differential
// guarantee: stepping via the active worklist and stepping via the
// dense all-routers sweep produce identical deliveries, statistics,
// and serialized fabric state, cycle for cycle, with and without link
// faults.
func TestActiveSetMatchesDenseSweep(t *testing.T) {
	specs := map[string]*faults.Spec{
		"clean":  nil,
		"faults": {Seed: 11, LinkMTTF: 400, StallMin: 5, StallMax: 40},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			active, dense := twinNets(t, 4, 2, 2, spec)
			var aDel, dDel []string
			active.SetDelivery(func(now int64, m *Message) {
				aDel = append(aDel, fmt.Sprintf("%d:%d→%d@%d", now, m.Src, m.Dst, m.DeliveredAt))
			})
			dense.SetDelivery(func(now int64, m *Message) {
				dDel = append(dDel, fmt.Sprintf("%d:%d→%d@%d", now, m.Src, m.Dst, m.DeliveredAt))
			})
			rng := rand.New(rand.NewSource(99))
			for cycle := 0; cycle < 2500; cycle++ {
				if rng.Intn(4) == 0 {
					sendRandom(t, rng, active, dense)
				}
				active.Step()
				dense.Step()
				if !reflect.DeepEqual(aDel, dDel) {
					t.Fatalf("cycle %d: deliveries diverged\n active: %v\n dense:  %v", cycle, aDel, dDel)
				}
				if a, d := active.Snapshot(), dense.Snapshot(); a != d {
					t.Fatalf("cycle %d: stats diverged\n active: %+v\n dense:  %+v", cycle, a, d)
				}
				if cycle%50 == 0 {
					a, d := active.Checkpoint(), dense.Checkpoint()
					if !reflect.DeepEqual(a, d) {
						t.Fatalf("cycle %d: serialized fabric state diverged", cycle)
					}
					if err := active.Check(); err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					if err := dense.Check(); err != nil {
						t.Fatalf("cycle %d (dense): %v", cycle, err)
					}
				}
			}
			for budget := 0; budget < 200000 && (active.Busy() || dense.Busy()); budget++ {
				active.Step()
				dense.Step()
			}
			if active.Busy() || dense.Busy() {
				t.Fatal("networks did not drain")
			}
			if !reflect.DeepEqual(aDel, dDel) {
				t.Fatal("final deliveries differ")
			}
			if a, d := active.Snapshot(), dense.Snapshot(); a != d {
				t.Fatalf("final stats differ:\n active: %+v\n dense:  %+v", a, d)
			}
			if active.ActiveRouters() != 0 {
				t.Errorf("drained fabric still lists %d active routers", active.ActiveRouters())
			}
		})
	}
}

// TestWorklistInvariantUnderRandomWorkload asserts after every cycle
// that the worklist equals exactly the set of routers with non-empty
// input buffers or injection queues — the Check invariant — across a
// randomized workload, with and without faults, and across Step and
// SkipTo interleavings.
func TestWorklistInvariantUnderRandomWorkload(t *testing.T) {
	specs := map[string]*faults.Spec{
		"clean":  nil,
		"faults": {Seed: 3, LossRate: 0, LinkMTTF: 250, StallMin: 4, StallMax: 24},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			tor := topology.MustNew(4, 2)
			var fm LinkFaultModel
			if spec != nil {
				fm = faults.NewLinkFaults(*spec, tor.ChannelCount())
			}
			nw, err := New(Config{Topo: tor, BufferDepth: 4, Faults: fm, LocalDelay: 3})
			if err != nil {
				t.Fatal(err)
			}
			nw.SetDelivery(func(now int64, m *Message) {})
			rng := rand.New(rand.NewSource(17))
			for cycle := 0; cycle < 3000; cycle++ {
				if rng.Intn(3) == 0 {
					src, dst := rng.Intn(16), rng.Intn(16)
					// src == dst exercises the local bypass alongside
					// fabric traffic.
					if err := nw.Send(&Message{Src: src, Dst: dst, Size: 1 + rng.Intn(8)}); err != nil {
						t.Fatal(err)
					}
				}
				if nw.Skippable() && rng.Intn(20) == 0 {
					// A quiescent fabric may bulk-skip; the worklist must
					// survive the jump (it is empty by the invariant).
					skip := nw.now + int64(1+rng.Intn(5))
					if due, ok := nw.NextLocalDue(); ok && due < skip {
						skip = due
					}
					nw.SkipTo(skip)
				}
				nw.Step()
				if err := nw.Check(); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
			}
			drain(t, nw, 200000)
			if err := nw.Check(); err != nil {
				t.Fatal(err)
			}
			if nw.ActiveRouters() != 0 {
				t.Errorf("quiescent fabric lists %d active routers", nw.ActiveRouters())
			}
		})
	}
}

// TestStepSteadyStateDoesNotAllocate covers the decide() scratch-buffer
// reuse (and the lazily allocated buffers' steady state): once traffic
// is flowing and the per-cycle move buffer has grown to its working
// size, Step must be allocation-free.
func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	nw := newNet(t, 8, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		src, dst := rng.Intn(64), rng.Intn(64)
		if src == dst {
			continue
		}
		if err := nw.Send(&Message{Src: src, Dst: dst, Size: 24}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the moves scratch buffer and fault the lazily
	// allocated input buffers along the traffic's routes.
	nw.Run(200)
	if nw.Quiesced() {
		t.Fatal("traffic drained before the steady-state measurement")
	}
	if avg := testing.AllocsPerRun(100, func() { nw.Step() }); avg != 0 {
		t.Errorf("Step allocated %.1f times per cycle in steady state, want 0", avg)
	}
}

// TestInjectQReleasesDeliveredMessages guards the injection-queue leak
// fix: after a queue drains, its backing array must not keep popped
// messages reachable.
func TestInjectQReleasesDeliveredMessages(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	for i := 0; i < 8; i++ {
		if err := nw.Send(&Message{Src: 0, Dst: 5, Size: 2}); err != nil {
			t.Fatal(err)
		}
	}
	backing := nw.injectQ[0][:cap(nw.injectQ[0])]
	drain(t, nw, 10000)
	for i, m := range backing {
		if m != nil {
			t.Fatalf("drained injection queue still references message %d (%p)", i, m)
		}
	}
}

// newIdleCornerNet builds a large torus with a little traffic pinned in
// one corner — the mostly-idle regime the worklist targets. refill
// re-arms the corner traffic so the fabric never drains during timing.
func newIdleCornerNet(tb testing.TB, k int, dense bool) (nw *Network, refill func()) {
	tor := topology.MustNew(k, 2)
	nw, err := New(Config{Topo: tor, BufferDepth: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if dense {
		nw.forceDenseSweep()
	}
	nw.SetDelivery(func(now int64, m *Message) {})
	refill = func() {
		if nw.QueuedMessages() > 8 {
			return
		}
		for i := 0; i < 4; i++ {
			// Short hops among the corner's neighborhood.
			src := i * k
			dst := (i+1)*k + 1
			if err := nw.Send(&Message{Src: src, Dst: dst, Size: 12}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	refill()
	return nw, refill
}

// BenchmarkLargeIdleFabric measures a mostly-idle 256×256 torus
// (65,536 routers, a handful active) under the active worklist vs the
// dense reference sweep. The worklist's per-cycle cost tracks the
// active handful; the dense sweep pays for every router.
func BenchmarkLargeIdleFabric(b *testing.B) {
	for _, mode := range []string{"active", "dense"} {
		b.Run(mode, func(b *testing.B) {
			nw, refill := newIdleCornerNet(b, 256, mode == "dense")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refill()
				nw.Step()
			}
		})
	}
}

// TestLargeIdleFabricSpeedup is the CI gate on the worklist's payoff:
// ≥10× over the dense sweep on the mostly-idle 256×256 torus. The
// real margin is orders of magnitude (tens of active routers vs
// 65,536), so the 10× floor has enormous headroom against noise.
func TestLargeIdleFabricSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-torus timing comparison skipped in -short")
	}
	const cycles = 120
	timeMode := func(dense bool) time.Duration {
		nw, refill := newIdleCornerNet(t, 256, dense)
		// Warm both paths through one step before timing.
		refill()
		nw.Step()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			refill()
			nw.Step()
		}
		return time.Since(start)
	}
	activeT := timeMode(false)
	denseT := timeMode(true)
	speedup := float64(denseT) / float64(activeT)
	t.Logf("mostly-idle 256×256: active %v, dense %v for %d cycles → %.0f× speedup", activeT, denseT, cycles, speedup)
	if speedup < 10 {
		t.Errorf("active worklist speedup %.1f× on a mostly-idle 256×256 torus, want ≥ 10×", speedup)
	}
}

// TestMergeSortedTailMatchesSort is the differential check on the
// worklist's top-of-Step ordering: merging the appended tail into the
// sorted prefix must give exactly what sorting the whole worklist
// gives, for random prefixes, tails and activation orders, with the
// scratch buffer reused throughout.
func TestMergeSortedTailMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var scratch []int32
	for trial := 0; trial < 2000; trial++ {
		universe := 1 + rng.Intn(300)
		perm := rng.Perm(universe)
		ids := make([]int32, rng.Intn(universe+1))
		for i := range ids {
			ids[i] = int32(perm[i])
		}
		sorted := rng.Intn(len(ids) + 1)
		slices.Sort(ids[:sorted])
		want := slices.Clone(ids)
		slices.Sort(want)
		scratch = mergeSortedTail(ids, sorted, scratch)
		if !slices.Equal(ids, want) {
			t.Fatalf("trial %d (prefix %d of %d): merged %v, sorted %v", trial, sorted, len(ids), ids, want)
		}
	}
}

// TestCheckRejectsUnsortedWorklistPrefix: Check verifies the ordering
// invariant the top-of-Step merge relies on.
func TestCheckRejectsUnsortedWorklistPrefix(t *testing.T) {
	nw := newNet(t, 4, 2, 4)
	nw.SetDelivery(func(now int64, m *Message) {})
	for _, src := range []int{9, 2, 5} {
		if err := nw.Send(&Message{Src: src, Dst: 0, Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	nw.Step()
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if len(nw.activeIDs) < 2 || nw.activeSorted < 2 {
		t.Fatalf("want a sorted prefix of at least 2 routers, have %d of %v", nw.activeSorted, nw.activeIDs)
	}
	nw.activeIDs[0], nw.activeIDs[1] = nw.activeIDs[1], nw.activeIDs[0]
	if err := nw.Check(); err == nil {
		t.Error("Check accepted a worklist prefix out of order")
	}
}

// TestSparseLoadIsSingleInput checks the premise of the root package's
// BenchmarkNetworkStepSparse on the same traffic: a few long worms on
// a 100×100 torus leave ≥90% of the routers a Step visits with exactly
// one occupied input, the case decideSingle resolves in place.
func TestSparseLoadIsSingleInput(t *testing.T) {
	const side, every, worms, size, cycles = 100, 64, 16, 48, 2000
	nw := newNet(t, side, 2, 8)
	nw.SetDelivery(func(now int64, m *Message) {})
	seed := 12345
	next := func() int {
		seed = seed*1103515245 + 12345
		return ((seed >> 16) & 0x7fffffff) % nw.nodes
	}
	visits, single := 0, 0
	for i := 0; i < cycles; i++ {
		if i%every == 0 {
			for w := 0; w < worms; w++ {
				src, dst := next(), next()
				if src == dst {
					continue
				}
				if err := nw.Send(&Message{Src: src, Dst: dst, Size: size}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, v := range nw.activeIDs {
			rt := &nw.routers[v]
			if rt.flits == 0 {
				continue
			}
			visits++
			if rt.occ[1] == 0 && rt.occ[0]&(rt.occ[0]-1) == 0 {
				single++
			}
		}
		nw.Step()
	}
	share := float64(single) / float64(visits)
	t.Logf("%d of %d router visits single-input (%.1f%%), %d flit-hops", single, visits, 100*share, nw.Snapshot().FlitHops)
	if share < 0.9 {
		t.Errorf("single-input share %.3f, want ≥ 0.9", share)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
}
