// Package overlay is the unified membership layer of the system: one
// implementation of the NEWSCAST partial-view protocol (paper §4.4)
// shared by the serial simulator, the sharded simulator and the live
// agent runtime. A Table holds the engines' N views; a Membership is a
// live node's standalone view. Both run the same merge kernel.
//
// The canonical representation is a flat, allocation-free packed cache:
// every descriptor is one uint64, (^stamp)<<32 | key, so that ascending
// primitive order is "freshest first, key ascending on ties", and every
// view is kept in that order. A merge is therefore a linear merge of
// already-sorted views that stops once it has enough distinct keys;
// duplicate keys are caught by a small open-addressed key set, and no
// merge sorts anything.
//
// Determinism contract: a merge keeps the cap freshest distinct keys of
// the union of both views plus both fresh self-descriptors, excluding
// the owner's own key; ties on the stamp are broken by ascending key.
// The packed cache and the legacy generic cache (package newscast, now a
// shim over Generic in this package) implement the identical contract —
// pinned by TestPackedMatchesGenericOnStampTies — so the serial engine,
// the sharded engine and the live agent produce identical merge results
// for identical inputs.
package overlay

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"antientropy/internal/stats"
)

// DefaultCacheSize is the cache size the paper recommends: "choosing
// c = 30 is already sufficient to obtain fast convergence … and very
// stable and robust connectivity" (§4.4).
const DefaultCacheSize = 30

// ErrBadCacheSize reports an invalid capacity.
var ErrBadCacheSize = errors.New("overlay: cache size must be at least 1")

// Entry is one unpacked node descriptor: a key (node id / interned
// address) and the logical timestamp at which the node injected it.
type Entry struct {
	Key   int32
	Stamp int32
}

// Pack encodes a descriptor so that ascending uint64 order is
// "freshest first, key ascending on ties".
func Pack(key, stamp int32) uint64 {
	return uint64(^uint32(stamp))<<32 | uint64(uint32(key))
}

// UnpackKey extracts the key of a packed descriptor.
func UnpackKey(e uint64) int32 { return int32(uint32(e)) }

// UnpackStamp extracts the stamp of a packed descriptor.
func UnpackStamp(e uint64) int32 { return int32(^uint32(e >> 32)) }

// Row is a packed view in storage order: freshest first, key ascending
// on ties, one descriptor per key. A row from Table.Row aliases the
// table: read it, never modify it or keep it across a merge.
type Row []uint64

// Entries returns an unpacked copy of the row, freshest first.
func (r Row) Entries() []Entry {
	out := make([]Entry, len(r))
	for i, e := range r {
		out[i] = Entry{Key: UnpackKey(e), Stamp: UnpackStamp(e)}
	}
	return out
}

// Stamp returns the timestamp held for key (ok = false if absent).
func (r Row) Stamp(key int32) (int32, bool) {
	for _, e := range r {
		if UnpackKey(e) == key {
			return UnpackStamp(e), true
		}
	}
	return 0, false
}

// Contains reports whether the row holds a descriptor for key.
func (r Row) Contains(key int32) bool {
	_, ok := r.Stamp(key)
	return ok
}

// Oldest returns the smallest stamp in the row (0, false when empty);
// used to monitor overlay freshness and in tests of crash repair.
func (r Row) Oldest() (int32, bool) {
	if len(r) == 0 {
		return 0, false
	}
	// Storage order is freshest first, so the minimum stamp is near the
	// end — but equal-stamp runs sort by key, so scan the whole row.
	min := UnpackStamp(r[0])
	for _, e := range r[1:] {
		if s := UnpackStamp(e); s < min {
			min = s
		}
	}
	return min, true
}

// Membership is one node's packed partial view of the network — the
// live agent's standalone cache (engines keep all views in a Table). It
// never contains the node's own descriptor and never exceeds its
// capacity. Membership is not safe for concurrent use.
type Membership struct {
	self int32
	cap  int
	// entries is the full-capacity backing array; the first n slots hold
	// the view in packed ascending order (freshest first).
	entries []uint64
	n       int32
	// remote collects a batch merge's sorted remote half; merge is the
	// kernel's buffer (survivors plus key set).
	remote []uint64
	merge  []uint64
}

// NewMembership returns an empty standalone cache of capacity c for the
// node with the given key.
func NewMembership(self int32, c int) (*Membership, error) {
	if c < 1 {
		return nil, ErrBadCacheSize
	}
	return &Membership{self: self, cap: c, entries: make([]uint64, c)}, nil
}

// Self returns the owning node's key.
func (m *Membership) Self() int32 { return m.self }

// Capacity returns the cache capacity c.
func (m *Membership) Capacity() int { return m.cap }

// Len returns the number of descriptors currently cached.
func (m *Membership) Len() int { return int(m.n) }

// Packed is the escape hatch: the live packed view, freshest first, key
// ascending on ties. The slice aliases the cache — callers must not
// modify it and must not retain it across mutations. It is what the
// agent's wire encoder consumes without any per-call allocation.
func (m *Membership) Packed() []uint64 { return m.entries[:m.n] }

// Entries returns an unpacked copy of the cached descriptors, freshest
// first.
func (m *Membership) Entries() []Entry { return Row(m.Packed()).Entries() }

// Contains reports whether the cache holds a descriptor for key.
func (m *Membership) Contains(key int32) bool { return Row(m.Packed()).Contains(key) }

// Stamp returns the timestamp cached for key (ok = false if absent).
func (m *Membership) Stamp(key int32) (int32, bool) { return Row(m.Packed()).Stamp(key) }

// Oldest returns the smallest stamp in the cache (0, false when empty).
func (m *Membership) Oldest() (int32, bool) { return Row(m.Packed()).Oldest() }

// Peer returns a uniformly random cached descriptor key, used by
// GETNEIGHBOR of the aggregation protocol and by NEWSCAST itself. The
// second result is false when the cache is empty.
func (m *Membership) Peer(rng *stats.RNG) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	return UnpackKey(m.entries[rng.Intn(int(m.n))]), true
}

// View returns what the node sends in an exchange: its cache content
// plus its own descriptor stamped now. Nodes continuously inject their
// own fresh descriptor this way; crashed nodes, by definition, stop.
func (m *Membership) View(now int32) []Entry {
	out := make([]Entry, 0, m.n+1)
	for _, e := range m.Packed() {
		out = append(out, Entry{Key: UnpackKey(e), Stamp: UnpackStamp(e)})
	}
	return append(out, Entry{Key: m.self, Stamp: now})
}

// AppendView appends the packed view (cache content plus a fresh self
// descriptor) to dst — the allocation-free counterpart of View.
func (m *Membership) AppendView(dst []uint64, now int32) []uint64 {
	dst = append(dst, m.Packed()...)
	return append(dst, Pack(m.self, now))
}

// smallAbsorb is the remote-size threshold below which Absorb updates
// the view incrementally instead of merging a sorted batch — the
// steady-state case for the live agent, whose delta frames carry a
// handful of descriptors.
const smallAbsorb = 8

// Absorb merges remote descriptors into the cache: the union of the
// current content and the remote view is deduplicated per key keeping
// the freshest stamp, the node's own descriptor is dropped, and the cap
// freshest survivors are kept (stamp ties broken by ascending key).
func (m *Membership) Absorb(remote []Entry) {
	if len(remote) <= smallAbsorb {
		for _, e := range remote {
			m.absorbOne(Pack(e.Key, e.Stamp))
		}
		return
	}
	batch := m.remote[:0]
	for _, e := range remote {
		if e.Key != m.self {
			batch = append(batch, Pack(e.Key, e.Stamp))
		}
	}
	m.absorbBatch(batch)
}

// AbsorbPacked merges an already-packed remote view into the cache.
func (m *Membership) AbsorbPacked(remote []uint64) {
	if len(remote) <= smallAbsorb {
		for _, e := range remote {
			m.absorbOne(e)
		}
		return
	}
	batch := m.remote[:0]
	for _, e := range remote {
		if UnpackKey(e) != m.self {
			batch = append(batch, e)
		}
	}
	m.absorbBatch(batch)
}

// absorbOne merges a single descriptor, keeping the view sorted.
func (m *Membership) absorbOne(e uint64) {
	m.n = int32(insert(m.entries, int(m.n), m.self, e))
}

// absorbBatch completes a merge whose remote half (self already
// filtered) is batch, a buffer owned by m.remote: sort it, then merge it
// with the current view through the package's merge kernel and install
// the cap survivors.
func (m *Membership) absorbBatch(batch []uint64) {
	slices.Sort(batch)
	var kept []uint64
	kept, m.merge = mergeDistinct(m.merge, m.cap, batch, m.Packed(), nil)
	copy(m.entries, kept)
	m.n = int32(len(kept))
	m.remote = batch[:0]
}

// Seed bootstraps the cache of a joining node from out-of-band contacts
// (§4.2 assumes such a discovery mechanism exists). Existing content is
// replaced.
func (m *Membership) Seed(entries []Entry) {
	m.n = 0
	m.Absorb(entries)
}

// insert merges one descriptor into row, whose first n slots hold a view
// in storage order and whose length is the view's capacity, and returns
// the new view length. Applying it to candidates one at a time equals
// the batch merge of all of them: trimming to capacity only ever drops
// the current stalest survivor and later candidates only raise the bar,
// so the sequential result is the batch top-cap of the union.
func insert(row []uint64, n int, self int32, e uint64) int {
	key := UnpackKey(e)
	if key == self {
		return n
	}
	for i, x := range row[:n] {
		if UnpackKey(x) != key {
			continue
		}
		if x <= e {
			return n // cached descriptor is at least as fresh
		}
		copy(row[i:n-1], row[i+1:n])
		n--
		break
	}
	at, _ := slices.BinarySearch(row[:n], e)
	if at == len(row) {
		return n // staler than a full view's every entry
	}
	if n < len(row) {
		n++
	}
	copy(row[at+1:n], row[at:n-1])
	row[at] = e
	return n
}

// mergeDistinct is the package's merge kernel. It walks the union of the
// packed lists a, b and c, each in storage order, in ascending order and
// keeps the first — freshest — descriptor of every key until limit keys
// are kept. c is meant to be short (an exchange's two self-descriptors):
// its head is checked against every step of the a/b merge. buf holds
// the survivors and the open-addressed key set that finds duplicates; it
// is grown when too small and returned for reuse. The survivors alias
// buf.
func mergeDistinct(buf []uint64, limit int, a, b, c []uint64) (kept, _ []uint64) {
	// A power-of-two set at most a quarter full keeps probe runs short.
	slots := 8
	for slots < 4*limit {
		slots <<= 1
	}
	if cap(buf) < slots+limit {
		buf = make([]uint64, slots+limit)
	}
	buf = buf[:slots+limit]
	set := buf[:slots]
	clear(set)
	shift := 32 - bits.TrailingZeros(uint(slots))
	mask := uint32(slots - 1)
	out := buf[slots:]
	n := 0
	// An exhausted list reads as the largest packed value. Should a real
	// descriptor equal it, either pick yields that same value, so the
	// output is unchanged; rem bounds the walk either way.
	ia, ib, ic := 0, 0, 0
	for rem := len(a) + len(b) + len(c); n < limit && rem > 0; rem-- {
		x, y := uint64(math.MaxUint64), uint64(math.MaxUint64)
		if ia < len(a) {
			x = a[ia]
		}
		if ib < len(b) {
			y = b[ib]
		}
		// Branch-free pick of the smaller head: which list wins is
		// data-dependent and would mispredict about half the time.
		fromA := 0
		if x <= y {
			fromA = 1
		}
		e := y ^ (x^y)&-uint64(fromA)
		if ic < len(c) && c[ic] < e {
			e = c[ic]
			ic++
		} else {
			ia += fromA
			ib += 1 - fromA
		}
		// Slots hold key+1 so that zero marks an empty slot. The common
		// case — the first probe finds e's key or an empty slot — also
		// runs without a data-dependent branch.
		k := uint64(uint32(e)) + 1
		h := uint32(e) * 0x9E3779B1 >> shift
		for set[h] != 0 && set[h] != k {
			h = (h + 1) & mask
		}
		fresh := 0
		if set[h] == 0 {
			fresh = 1
		}
		set[h] = k
		out[n] = e
		n += fresh
	}
	return out[:n], buf
}

// Exchange performs one full NEWSCAST exchange between two live nodes at
// logical time now: both merge the union of both views plus both fresh
// self-descriptors. For standalone caches; engines use Table.Exchange,
// which is the same merge on shared backing storage.
func Exchange(a, b *Membership, now int32) {
	va := a.AppendView(nil, now)
	vb := b.AppendView(nil, now)
	a.AbsorbPacked(vb)
	b.AbsorbPacked(va)
}

// Table holds N packed views densely — the engines' representation.
// Row i is node i's view (self = i): its descriptors sit at the front
// of backing[i*cap:(i+1)*cap] and its length in lens[i], so a 10⁶-node
// table is two allocations and reading a row touches no per-row header.
type Table struct {
	cap     int
	lens    []int32
	backing []uint64
}

// NewTable builds an empty table of n views with capacity c each.
func NewTable(n, c int) (*Table, error) {
	if c < 1 {
		return nil, ErrBadCacheSize
	}
	if n < 1 {
		return nil, fmt.Errorf("overlay: invalid table size %d", n)
	}
	return &Table{cap: c, lens: make([]int32, n), backing: make([]uint64, n*c)}, nil
}

// N returns the number of views.
func (t *Table) N() int { return len(t.lens) }

// Cap returns the per-view capacity c.
func (t *Table) Cap() int { return t.cap }

// Row returns node i's current view. It aliases the table: read it
// before the next merge touching node i, never modify it.
func (t *Table) Row(i int) Row {
	lo := i * t.cap
	return t.backing[lo : lo+int(t.lens[i])]
}

// slots returns the full-capacity storage of node i's view.
func (t *Table) slots(i int) []uint64 {
	lo := i * t.cap
	return t.backing[lo : lo+t.cap]
}

// Neighbor draws a uniform member of node i's current view (-1 when the
// view is empty) — GETNEIGHBOR on the table.
func (t *Table) Neighbor(i int, rng *stats.RNG) int {
	n := t.lens[i]
	if n == 0 {
		return -1
	}
	return int(UnpackKey(t.backing[i*t.cap+rng.Intn(int(n))]))
}

// Seed replaces node i's view with the cap freshest distinct foreign
// descriptors of entries — a joiner's out-of-band contacts (§4.2).
func (t *Table) Seed(i int, entries []Entry) {
	row := t.slots(i)
	n := 0
	for _, e := range entries {
		n = insert(row, n, int32(i), Pack(e.Key, e.Stamp))
	}
	t.lens[i] = int32(n)
}

// SeedRandom fills node i's view with up to size distinct random peers
// drawn uniformly from [0, total), excluding the node itself, all
// stamped now — the engines' warmed-up bootstrap. size is clamped to the
// capacity and to the number of distinct candidates, so the draw always
// terminates. Like a real joiner's out-of-band contact list, the sample
// may briefly include a dead slot; NEWSCAST repairs that within a cycle
// or two. The rejection-sampling draw order is part of the sharded
// engine's determinism contract — do not reorder.
func (t *Table) SeedRandom(i, size, total int, now int32, rng *stats.RNG) {
	candidates := total
	if i >= 0 && i < total {
		candidates--
	}
	size = min(size, t.cap, candidates)
	if size < 1 {
		t.lens[i] = 0
		return
	}
	row := t.slots(i)
	w := 0
	for w < size {
		c := rng.Intn(total)
		if c == i {
			continue
		}
		dup := false
		for x := 0; x < w; x++ {
			if UnpackKey(row[x]) == int32(c) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		row[w] = Pack(int32(c), now)
		w++
	}
	// Restore the freshest-first, key-ascending storage order (all
	// stamps are equal here, so this is a key sort).
	slices.Sort(row[:w])
	t.lens[i] = int32(w)
}

// Exchange performs one full NEWSCAST exchange between live nodes i and
// j at logical time cycle, using (and returning) the caller's scratch
// buffer: both views merge the union of both views plus both fresh
// self-descriptors and keep the freshest cap distinct keys excluding
// their own. All three inputs are already in storage order, so the
// kernel merges them linearly and stops at cap+1 distinct keys — enough
// for each side to drop its own key and keep cap foreign ones.
func (t *Table) Exchange(scratch []uint64, i, j, cycle int) []uint64 {
	now := int32(cycle)
	selves := [2]uint64{Pack(int32(i), now), Pack(int32(j), now)}
	if selves[1] < selves[0] {
		selves[0], selves[1] = selves[1], selves[0]
	}
	kept, scratch := mergeDistinct(scratch, t.cap+1, t.Row(i), t.Row(j), selves[:])
	t.writeBack(i, kept)
	t.writeBack(j, kept)
	return scratch
}

// writeBack installs the merged view for node: the kept survivors minus
// the node's own descriptor, truncated to cap. Because kept holds the
// cap+1 freshest distinct keys of the union, dropping the node's own key
// leaves exactly the cap freshest foreign descriptors.
func (t *Table) writeBack(node int, kept []uint64) {
	row := t.slots(node)
	w := 0
	for _, entry := range kept {
		if int(UnpackKey(entry)) == node {
			continue
		}
		row[w] = entry
		w++
		if w == len(row) {
			break
		}
	}
	t.lens[node] = int32(w)
}
