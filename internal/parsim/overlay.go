package parsim

import (
	"fmt"

	"antientropy/internal/overlay"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// OverlaySpec selects the sharded overlay implementation for a run.
// Specs are descriptions, not instances: the engine builds the overlay
// against its own shard layout.
type OverlaySpec interface {
	build(e *Engine) (overlayImpl, error)
}

// overlayImpl is the engine's internal view of a sharded overlay.
// neighbor must only read the node's own view (it runs in the parallel
// phase); stepShard runs one shard's slice of the overlay round,
// deferring cross-shard work; flushCross drains the deferred work
// serially.
type overlayImpl interface {
	neighbor(node int, rng *stats.RNG) int
	stepShard(s *shard, cycle int)
	flushCross(cycle int)
	onJoin(node, cycle int, rng *stats.RNG)
}

// Newscast selects the sharded NEWSCAST overlay with cache size c
// (values below 1 fall back to the paper's recommended 30). It is the
// parallel equivalent of sim.Newscast: every cycle each live node
// initiates one cache exchange; exchanges with crashed peers are
// skipped, and the scenario partition filter vetoes gossip across a
// split exactly as it vetoes aggregation exchanges.
func Newscast(c int) OverlaySpec {
	if c < 1 {
		c = 30
	}
	return newscastSpec{c: c}
}

type newscastSpec struct{ c int }

func (sp newscastSpec) build(e *Engine) (overlayImpl, error) {
	t, err := overlay.NewTable(e.nodes, sp.c)
	if err != nil {
		return nil, err
	}
	o := &shardedNewscast{
		e:             e,
		t:             t,
		bootstrapSize: min(sp.c, e.nodes-1),
	}
	// Seed every cache with up to c distinct random peers (a warmed-up
	// overlay, as the paper's experiments assume). Seeding is sharded:
	// each shard seeds its own nodes from its own stream, so a 10⁶-node
	// build parallelizes like a cycle does.
	e.parallel(func(s *shard) {
		for i := s.lo; i < s.hi; i++ {
			t.SeedRandom(i, o.bootstrapSize, e.nodes, 0, s.rng)
		}
	})
	return o, nil
}

// shardedNewscast drives the unified packed membership layer
// (overlay.Table — one flat allocation-free view array, the identical
// representation and merge code the serial engine and the live agent
// use) through the engine's two-phase shard schedule.
type shardedNewscast struct {
	e *Engine
	t *overlay.Table

	// bootstrapSize is how many contacts a joiner or reseeded node gets.
	bootstrapSize int

	// scratch is the serial-phase merge buffer (flushCross, onJoin); the
	// parallel phase uses the per-shard scratch.
	scratch []uint64
}

// neighbor draws a uniform member of the node's current view.
func (o *shardedNewscast) neighbor(node int, rng *stats.RNG) int {
	return o.t.Neighbor(node, rng)
}

// stepShard runs one shard's gossip initiations: intra-shard exchanges
// apply immediately, cross-shard ones are deferred to flushCross. Only
// the initiator's own view is read to pick the peer, and only local
// caches are written, so the phase is race-free.
func (o *shardedNewscast) stepShard(s *shard, cycle int) {
	e := o.e
	s.gossip = s.gossip[:0]
	s.permute()
	for _, off := range s.perm {
		i := s.lo + int(off)
		if !e.alive.Contains(i) {
			continue
		}
		j := o.neighbor(i, s.rng)
		if j < 0 || !e.alive.Contains(j) {
			continue
		}
		if e.filter != nil && !e.filter(i, j) {
			continue
		}
		if e.shardOf(j) == s.index {
			s.scratch = o.t.Exchange(s.scratch, i, j, cycle)
		} else {
			s.gossip = append(s.gossip, crossPair{i: int32(i), j: int32(j)})
		}
	}
}

// flushCross applies the deferred cross-shard gossip exchanges in shard
// order — the deterministic merge step of the overlay round.
func (o *shardedNewscast) flushCross(cycle int) {
	for _, s := range o.e.shards {
		for _, p := range s.gossip {
			o.scratch = o.t.Exchange(o.scratch, int(p.i), int(p.j), cycle)
		}
	}
}

// onJoin reseeds the view of a node that took over a slot (churn, joins)
// or is being refreshed by a post-heal rendezvous. Like the serial
// overlay's bootstrap, contacts are drawn from the whole slot space, so
// a joiner may briefly hold a dead contact — NEWSCAST repairs that
// within a cycle or two.
func (o *shardedNewscast) onJoin(node, cycle int, rng *stats.RNG) {
	o.t.SeedRandom(node, o.bootstrapSize, o.e.nodes, int32(cycle), rng)
}

// CompleteLive selects the fully connected overlay over the live
// membership: every node can contact every other live node, the
// sharded equivalent of sim.CompleteLive.
func CompleteLive() OverlaySpec { return completeLiveSpec{} }

type completeLiveSpec struct{}

func (completeLiveSpec) build(e *Engine) (overlayImpl, error) { return &completeLive{e: e}, nil }

type completeLive struct{ e *Engine }

// neighbor rejection-samples a live peer different from the caller. The
// live set is only mutated in serial phases, so concurrent reads with
// per-shard RNGs are safe.
func (o *completeLive) neighbor(node int, rng *stats.RNG) int {
	if o.e.alive.Len() == 0 {
		return -1
	}
	for attempt := 0; attempt < 64; attempt++ {
		j := o.e.alive.Random(rng)
		if j != node {
			return j
		}
	}
	return -1
}

func (o *completeLive) stepShard(s *shard, cycle int)          {}
func (o *completeLive) flushCross(cycle int)                   {}
func (o *completeLive) onJoin(node, cycle int, rng *stats.RNG) {}

// NewscastFrozen selects a NEWSCAST overlay whose descriptor gossip is
// disabled after the bootstrap seeding (the A3 ablation): aggregation
// keeps sampling the same static random views. The sharded equivalent of
// sim.NewscastFrozen.
func NewscastFrozen(c int) OverlaySpec {
	if c < 1 {
		c = 30
	}
	return frozenNewscastSpec{c: c}
}

type frozenNewscastSpec struct{ c int }

func (sp frozenNewscastSpec) build(e *Engine) (overlayImpl, error) {
	inner, err := newscastSpec{c: sp.c}.build(e)
	if err != nil {
		return nil, err
	}
	return &frozenNewscast{shardedNewscast: inner.(*shardedNewscast)}, nil
}

// frozenNewscast keeps the seeded views but never gossips.
type frozenNewscast struct {
	*shardedNewscast
}

func (f *frozenNewscast) stepShard(s *shard, cycle int) {}
func (f *frozenNewscast) flushCross(cycle int)          {}

// Static selects a fixed topology generated by build — the sharded
// equivalent of sim.StaticFunc, covering the non-random topology
// families of the fig3/fig4 sweeps (Watts–Strogatz, scale-free, random
// k-out, complete). The graph is generated once at engine construction
// from a dedicated stream of the engine seed and served through
// topology's packed CSR adjacency, which the parallel exchange phases
// read concurrently without synchronization: Neighbor only reads the
// adjacency and draws from the caller's shard-private RNG.
func Static(build func(n int, rng *stats.RNG) (topology.Graph, error)) OverlaySpec {
	return staticSpec{gen: build}
}

type staticSpec struct {
	gen func(n int, rng *stats.RNG) (topology.Graph, error)
}

func (sp staticSpec) build(e *Engine) (overlayImpl, error) {
	// The builder RNG is split off the control stream, so the graph is a
	// pure function of (seed, shard count) like everything else.
	g, err := sp.gen(e.nodes, e.ctl.Split())
	if err != nil {
		return nil, err
	}
	if g.N() != e.nodes {
		return nil, fmt.Errorf("parsim: static overlay has %d nodes, engine expects %d", g.N(), e.nodes)
	}
	return &staticOverlay{g: g}, nil
}

// staticOverlay adapts a topology.Graph: links never change, there is no
// per-cycle gossip, and joins keep the slot's original adjacency —
// matching the serial engine's static overlay semantics.
type staticOverlay struct {
	g topology.Graph
}

func (o *staticOverlay) neighbor(node int, rng *stats.RNG) int {
	return o.g.Neighbor(node, rng)
}

func (o *staticOverlay) stepShard(s *shard, cycle int)          {}
func (o *staticOverlay) flushCross(cycle int)                   {}
func (o *staticOverlay) onJoin(node, cycle int, rng *stats.RNG) {}
