package overlay

import (
	"slices"
	"testing"

	"antientropy/internal/stats"
)

func TestPackUnpack(t *testing.T) {
	cases := []Entry{
		{Key: 0, Stamp: 0},
		{Key: 1, Stamp: 0},
		{Key: 1 << 30, Stamp: 1 << 30},
		{Key: 42, Stamp: 2147483647},
	}
	for _, e := range cases {
		p := Pack(e.Key, e.Stamp)
		if UnpackKey(p) != e.Key || UnpackStamp(p) != e.Stamp {
			t.Errorf("pack/unpack mangled %+v -> (%d, %d)", e, UnpackKey(p), UnpackStamp(p))
		}
	}
	// Ascending packed order must be freshest-first, key-ascending on ties.
	if !(Pack(5, 9) < Pack(3, 8)) {
		t.Error("fresher stamp must order first")
	}
	if !(Pack(3, 9) < Pack(5, 9)) {
		t.Error("equal stamps must order by ascending key")
	}
}

func TestMembershipAbsorbKeepsFreshest(t *testing.T) {
	m, err := NewMembership(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Absorb([]Entry{{Key: 2, Stamp: 1}, {Key: 3, Stamp: 2}, {Key: 1, Stamp: 99}})
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2 (own descriptor dropped)", m.Len())
	}
	if m.Contains(1) {
		t.Fatal("cache holds own descriptor")
	}
	// A fresher duplicate wins; a staler one is ignored.
	m.Absorb([]Entry{{Key: 2, Stamp: 5}, {Key: 3, Stamp: 0}})
	if s, _ := m.Stamp(2); s != 5 {
		t.Fatalf("stamp(2) = %d, want 5", s)
	}
	if s, _ := m.Stamp(3); s != 2 {
		t.Fatalf("stamp(3) = %d, want 2", s)
	}
	// Capacity eviction drops the oldest.
	m.Absorb([]Entry{{Key: 4, Stamp: 7}, {Key: 5, Stamp: 6}})
	if m.Len() != 3 || m.Contains(3) {
		t.Fatalf("eviction wrong: len=%d entries=%v", m.Len(), m.Entries())
	}
	if old, ok := m.Oldest(); !ok || old != 5 {
		t.Fatalf("oldest = %d, want 5", old)
	}
}

func TestMembershipSeedReplaces(t *testing.T) {
	m, _ := NewMembership(0, 4)
	m.Absorb([]Entry{{Key: 9, Stamp: 1}})
	m.Seed([]Entry{{Key: 1, Stamp: 3}, {Key: 2, Stamp: 3}})
	if m.Len() != 2 || m.Contains(9) {
		t.Fatalf("seed did not replace: %v", m.Entries())
	}
}

func TestTableExchangeMatchesStandalone(t *testing.T) {
	// Table.Exchange (the engines' fast path) and the standalone
	// Exchange over two Memberships must produce identical views.
	tbl, err := NewTable(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewMembership(0, 3)
	b, _ := NewMembership(1, 3)
	seedA := []Entry{{Key: 2, Stamp: 4}, {Key: 3, Stamp: 2}, {Key: 4, Stamp: 6}}
	seedB := []Entry{{Key: 2, Stamp: 5}, {Key: 5, Stamp: 1}, {Key: 0, Stamp: 3}}
	tbl.Seed(0, seedA)
	tbl.Seed(1, seedB)
	a.Seed(seedA)
	b.Seed(seedB)

	tbl.Exchange(nil, 0, 1, 7)
	Exchange(a, b, 7)

	if !slices.Equal(tbl.Row(0), a.Packed()) {
		t.Errorf("node 0: table %v vs standalone %v", tbl.Row(0).Entries(), a.Entries())
	}
	if !slices.Equal(tbl.Row(1), b.Packed()) {
		t.Errorf("node 1: table %v vs standalone %v", tbl.Row(1).Entries(), b.Entries())
	}
}

// TestPackedMatchesGenericOnStampTies pins the cross-engine determinism
// contract: the packed table (both engines), the standalone packed cache
// (live agent) and the legacy generic cache (the newscast compatibility
// shim) must produce identical merge results descriptor for descriptor —
// including the equal-stamp cases, where ties break by ascending key.
// Fixtures deliberately saturate the caches with one shared stamp so
// every ordering decision is a tie-break.
func TestPackedMatchesGenericOnStampTies(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		selfA int32
		selfB int32
		viewA []Entry // pre-exchange cache of A
		viewB []Entry // pre-exchange cache of B
		now   int32
	}{
		{
			name: "all stamps equal, overflow forces tie eviction",
			cap:  2, selfA: 1, selfB: 2, now: 10,
			viewA: []Entry{{5, 10}, {6, 10}},
			viewB: []Entry{{3, 10}, {4, 10}},
		},
		{
			name: "disjoint views, equal stamps, no overlap with selves",
			cap:  2, selfA: 1, selfB: 2, now: 10,
			viewA: []Entry{{5, 10}, {6, 10}},
			viewB: []Entry{{7, 10}, {8, 10}},
		},
		{
			name: "duplicate key with equal stamps on both sides",
			cap:  3, selfA: 0, selfB: 9, now: 4,
			viewA: []Entry{{7, 4}, {3, 4}, {9, 1}},
			viewB: []Entry{{7, 4}, {5, 4}, {0, 2}},
		},
		{
			name: "fresh self descriptors tie with cached foreign ones",
			cap:  3, selfA: 2, selfB: 7, now: 6,
			viewA: []Entry{{4, 6}, {5, 6}, {6, 6}},
			viewB: []Entry{{1, 6}, {3, 6}, {8, 6}},
		},
		{
			name: "mixed stamps with a tie exactly at the eviction boundary",
			cap:  3, selfA: 10, selfB: 11, now: 9,
			viewA: []Entry{{1, 9}, {2, 5}, {3, 5}},
			viewB: []Entry{{4, 5}, {5, 5}, {6, 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, _ := NewTable(12, tc.cap)
			tbl.Seed(int(tc.selfA), tc.viewA)
			tbl.Seed(int(tc.selfB), tc.viewB)
			pa, _ := NewMembership(tc.selfA, tc.cap)
			pb, _ := NewMembership(tc.selfB, tc.cap)
			pa.Seed(tc.viewA)
			pb.Seed(tc.viewB)
			ga, _ := NewGeneric(tc.selfA, tc.cap)
			gb, _ := NewGeneric(tc.selfB, tc.cap)
			ga.Seed(toGeneric(tc.viewA))
			gb.Seed(toGeneric(tc.viewB))

			tbl.Exchange(nil, int(tc.selfA), int(tc.selfB), int(tc.now))
			Exchange(pa, pb, tc.now)
			ExchangeGeneric(ga, gb, int64(tc.now))

			for _, pair := range []struct {
				p *Membership
				g *Generic[int32]
			}{{pa, ga}, {pb, gb}} {
				self := pair.p.Self()
				want := pair.g.Entries()
				for name, got := range map[string][]Entry{
					"table":      tbl.Row(int(self)).Entries(),
					"standalone": pair.p.Entries(),
				} {
					if len(got) != len(want) {
						t.Fatalf("node %d: %s %v vs generic %v", self, name, got, want)
					}
					for i := range got {
						if got[i].Key != want[i].Key || int64(got[i].Stamp) != want[i].Stamp {
							t.Fatalf("node %d entry %d: %s %v vs generic %v",
								self, i, name, got, want)
						}
					}
				}
			}
		})
	}
}

func toGeneric(es []Entry) []GenericEntry[int32] {
	out := make([]GenericEntry[int32], len(es))
	for i, e := range es {
		out[i] = GenericEntry[int32]{Key: e.Key, Stamp: int64(e.Stamp)}
	}
	return out
}

func TestSeedRandomDistinctAndSorted(t *testing.T) {
	tbl, _ := NewTable(20, 10)
	tbl.SeedRandom(3, 8, 20, 5, stats.NewRNG(1))
	row := tbl.Row(3)
	if len(row) != 8 {
		t.Fatalf("len = %d, want 8", len(row))
	}
	seen := map[int32]bool{}
	for _, e := range row.Entries() {
		if e.Key == 3 {
			t.Fatal("seeded with self")
		}
		if e.Stamp != 5 {
			t.Fatalf("stamp %d, want 5", e.Stamp)
		}
		if seen[e.Key] {
			t.Fatalf("duplicate key %d", e.Key)
		}
		seen[e.Key] = true
	}
	if !slices.IsSorted(row) {
		t.Fatal("packed view not in storage order")
	}
}

// TestSeedRandomClampsToCandidates asks for more distinct peers than
// the slot space holds; the draw must stop at every other slot instead
// of rejection-sampling forever.
func TestSeedRandomClampsToCandidates(t *testing.T) {
	for _, tc := range []struct{ total, want int }{{1, 0}, {2, 1}, {4, 3}} {
		tbl, _ := NewTable(tc.total, 8)
		tbl.SeedRandom(0, 8, tc.total, 2, stats.NewRNG(9))
		row := tbl.Row(0)
		if len(row) != tc.want || row.Contains(0) {
			t.Fatalf("total %d: seeded %v, want %d foreign peers", tc.total, row.Entries(), tc.want)
		}
	}
}

func TestBookInterning(t *testing.T) {
	b := NewBook()
	a1 := b.Intern("node-a")
	b1 := b.Intern("node-b")
	if a1 == b1 {
		t.Fatal("distinct addrs share an id")
	}
	if again := b.Intern("node-a"); again != a1 {
		t.Fatalf("re-intern changed id: %d vs %d", again, a1)
	}
	if got := b.Addr(b1); got != "node-b" {
		t.Fatalf("Addr(%d) = %q", b1, got)
	}
	if _, ok := b.Lookup("node-c"); ok {
		t.Fatal("lookup invented an id")
	}
	if b.Addr(99) != "" {
		t.Fatal("unknown id resolved")
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestSplitAddrList(t *testing.T) {
	got := SplitAddrList(" a:1, ,b:2,")
	if !slices.Equal(got, []string{"a:1", "b:2"}) {
		t.Fatalf("got %v", got)
	}
	if out := SplitAddrList(""); len(out) != 0 {
		t.Fatalf("empty input produced %v", out)
	}
}

func TestBadSizes(t *testing.T) {
	if _, err := NewMembership(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewTable(0, 5); err == nil {
		t.Error("zero-row table accepted")
	}
	if _, err := NewTable(5, 0); err == nil {
		t.Error("zero-capacity table accepted")
	}
}

// TestSmallAbsorbMatchesBatch pins the incremental fast path against
// the batch merge: absorbing any small remote set must produce exactly
// the view a batch union-merge produces, across duplicates, self
// descriptors, ties and cap evictions.
func TestSmallAbsorbMatchesBatch(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 2000; trial++ {
		cap := 1 + rng.Intn(6)
		fast, _ := NewMembership(3, cap)
		slow, _ := NewMembership(3, cap)
		seed := make([]Entry, rng.Intn(8))
		for i := range seed {
			seed[i] = Entry{Key: int32(rng.Intn(10)), Stamp: int32(rng.Intn(6))}
		}
		fast.Seed(seed)
		slow.Seed(seed)
		if !slices.Equal(fast.Packed(), slow.Packed()) {
			t.Fatalf("trial %d: seeds diverge", trial)
		}
		remote := make([]Entry, rng.Intn(int(smallAbsorb)+1))
		for i := range remote {
			remote[i] = Entry{Key: int32(rng.Intn(10)), Stamp: int32(rng.Intn(6))}
		}
		fast.Absorb(remote) // small path
		// Force the batch path by padding with self descriptors, which
		// the merge drops.
		padded := append(append([]Entry(nil), remote...),
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3},
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3},
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3})
		slow.Absorb(padded)
		if !slices.Equal(fast.Packed(), slow.Packed()) {
			t.Fatalf("trial %d: cap=%d seed=%v remote=%v\n fast=%v\n slow=%v",
				trial, cap, seed, remote, fast.Entries(), slow.Entries())
		}
	}
}

// oracleExchange is the reference merge the packed table used before
// the linear merge kernel: collect both rows and both fresh
// self-descriptors, sort the whole union, keep the first occurrence of
// each key with a quadratic scan until cap+1 survive, and write the
// survivors back minus each node's own key. It works on the same flat
// layout as Table (row i at backing[i*c:], its length in lens[i]).
func oracleExchange(backing []uint64, lens []int32, c, i, j, cycle int) {
	now := int32(cycle)
	scratch := []uint64{Pack(int32(i), now), Pack(int32(j), now)}
	scratch = append(scratch, backing[i*c:i*c+int(lens[i])]...)
	scratch = append(scratch, backing[j*c:j*c+int(lens[j])]...)
	slices.Sort(scratch)
	w := 0
	for r := 0; r < len(scratch) && w < c+1; r++ {
		key := UnpackKey(scratch[r])
		dup := false
		for x := 0; x < w; x++ {
			if UnpackKey(scratch[x]) == key {
				dup = true
				break
			}
		}
		if !dup {
			scratch[w] = scratch[r]
			w++
		}
	}
	for _, node := range []int{i, j} {
		n := 0
		for _, e := range scratch[:w] {
			if int(UnpackKey(e)) == node {
				continue
			}
			backing[node*c+n] = e
			n++
			if n == c {
				break
			}
		}
		lens[node] = int32(n)
	}
}

// oracleAbsorb is the reference batch absorb: the sorted union of the
// remote descriptors (self dropped) and the view, first occurrence of
// each key, at most c survivors.
func oracleAbsorb(view []uint64, self int32, c int, remote []uint64) []uint64 {
	var union []uint64
	for _, e := range remote {
		if UnpackKey(e) != self {
			union = append(union, e)
		}
	}
	union = append(union, view...)
	slices.Sort(union)
	var out []uint64
	for _, e := range union {
		if len(out) == c {
			break
		}
		if !slices.ContainsFunc(out, func(x uint64) bool { return UnpackKey(x) == UnpackKey(e) }) {
			out = append(out, e)
		}
	}
	return out
}

// TestMergeKernelMatchesOracle drives random tables through many
// exchanges and compares the merge kernel with the sort-and-scan
// oracle, slot for slot: backing arrays (stale slots past each row's
// length included) and lengths must be identical. Stamps advance
// slowly, so rows hold many equal stamps that tie with the fresh
// self-descriptors, and exchanging nodes usually know each other, so
// each side's own key is in the peer's row.
func TestMergeKernelMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, c := range []int{1, 2, 3, 5, 8, 30, 31, 64} {
		for _, n := range []int{c + 2, 3 * c, 200} {
			tbl, _ := NewTable(n, c)
			for i := 0; i < n; i++ {
				entries := make([]Entry, rng.Intn(2*c+1))
				for k := range entries {
					entries[k] = Entry{Key: int32(rng.Intn(n)), Stamp: int32(rng.Intn(3))}
				}
				tbl.Seed(i, entries)
			}
			backing := slices.Clone(tbl.backing)
			lens := slices.Clone(tbl.lens)
			var scratch []uint64
			cycle := 3
			for x := 0; x < 40*n; x++ {
				if rng.Intn(4) == 0 {
					cycle++
				}
				i := rng.Intn(n)
				j := tbl.Neighbor(i, rng)
				if j < 0 || rng.Intn(8) == 0 {
					if j = rng.Intn(n); j == i {
						continue
					}
				}
				scratch = tbl.Exchange(scratch, i, j, cycle)
				oracleExchange(backing, lens, c, i, j, cycle)
				if !slices.Equal(tbl.backing, backing) || !slices.Equal(tbl.lens, lens) {
					t.Fatalf("c=%d n=%d exchange %d (%d<->%d at %d):\n row i %v vs oracle %v\n row j %v vs oracle %v",
						c, n, x, i, j, cycle,
						tbl.Row(i).Entries(), Row(backing[i*c:i*c+int(lens[i])]).Entries(),
						tbl.Row(j).Entries(), Row(backing[j*c:j*c+int(lens[j])]).Entries())
				}
			}
		}
	}
}

// TestAbsorbMatchesOracle pins the standalone cache's batch path (and
// its incremental path) against the sort-and-scan oracle.
func TestAbsorbMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, c := range []int{1, 2, 3, 5, 30, 64} {
		m, _ := NewMembership(4, c)
		for trial := 0; trial < 500; trial++ {
			remote := make([]uint64, rng.Intn(2*c+12))
			for k := range remote {
				remote[k] = Pack(int32(rng.Intn(2*c+6)), int32(trial/8+rng.Intn(3)))
			}
			want := oracleAbsorb(m.Packed(), 4, c, remote)
			m.AbsorbPacked(remote)
			if !slices.Equal(m.Packed(), want) {
				t.Fatalf("c=%d trial %d: absorb %v\n got  %v\n want %v",
					c, trial, Row(remote).Entries(), m.Entries(), Row(want).Entries())
			}
		}
	}
}

// benchTable is a warmed-up engine-sized table: 5·10⁴ views of the
// paper's c = 30, seeded like the engines and gossiped for a few cycles
// so rows hold mixed stamps.
func benchTable(b *testing.B) (*Table, *stats.RNG) {
	b.Helper()
	const n = 50000
	tbl, err := NewTable(n, DefaultCacheSize)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		tbl.SeedRandom(i, DefaultCacheSize, n, 0, rng)
	}
	var scratch []uint64
	for cycle := 1; cycle <= 5; cycle++ {
		for i := 0; i < n; i++ {
			scratch = tbl.Exchange(scratch, i, tbl.Neighbor(i, rng), cycle)
		}
	}
	return tbl, rng
}

// BenchmarkTableExchange times one NEWSCAST exchange on an engine-sized
// table: node i (in sweep order) with a uniform member of its view.
// Choosing the peer costs one Neighbor call, measured on its own by
// BenchmarkTableNeighbor.
func BenchmarkTableExchange(b *testing.B) {
	tbl, rng := benchTable(b)
	var scratch []uint64
	n, cycle, i := tbl.N(), 6, 0
	b.ReportAllocs()
	for b.Loop() {
		scratch = tbl.Exchange(scratch, i, tbl.Neighbor(i, rng), cycle)
		if i++; i == n {
			i, cycle = 0, cycle+1
		}
	}
}

// BenchmarkTableNeighbor times GETNEIGHBOR on an engine-sized table,
// sweeping the nodes in a shuffled order like an engine cycle.
func BenchmarkTableNeighbor(b *testing.B) {
	tbl, rng := benchTable(b)
	perm := make([]int, tbl.N())
	rng.Perm(perm)
	k := 0
	b.ReportAllocs()
	for b.Loop() {
		tbl.Neighbor(perm[k], rng)
		if k++; k == len(perm) {
			k = 0
		}
	}
}
