package mining

import (
	"math/rand"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/txdb"
)

func randDB(seed int64, docs, vocab, docLen int) *txdb.DB {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]txdb.Transaction, docs)
	for i := range txs {
		seen := map[itemset.Item]struct{}{}
		for len(seen) < docLen {
			seen[itemset.Item(rng.Intn(vocab))] = struct{}{}
		}
		items := make([]itemset.Item, 0, docLen)
		for it := range seen {
			items = append(items, it)
		}
		txs[i] = txdb.Transaction{TID: txdb.TID(i), Items: itemset.New(items...)}
	}
	return txdb.New(txs, vocab)
}

func TestOptionsMinCount(t *testing.T) {
	cases := []struct {
		opts Options
		db   int
		want int
	}{
		{Options{MinSupFrac: 0.02}, 1000, 20},
		{Options{MinSupFrac: 0.0175}, 1000, 18},
		{Options{MinSupCount: 2}, 1000, 2},
		{Options{MinSupCount: 2, MinSupFrac: 0.5}, 1000, 2}, // count wins
		{Options{MinSupFrac: 0.000001}, 1000, 1},            // clamps to 1
	}
	for _, c := range cases {
		if got := c.opts.MinCount(c.db); got != c.want {
			t.Errorf("MinCount(%+v, %d) = %d, want %d", c.opts, c.db, got, c.want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.PartitionSize != 100 || o.THTEntries != 400 || o.GlobalCandidateBatch != 20000 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{PartitionSize: 7, THTEntries: 16, GlobalCandidateBatch: 3}.WithDefaults()
	if o2.PartitionSize != 7 || o2.THTEntries != 16 || o2.GlobalCandidateBatch != 3 {
		t.Fatalf("explicit values overwritten: %+v", o2)
	}
}

func TestCountSupport(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 3)},
		{TID: 2, Items: itemset.New(2, 3)},
	}, 5)
	if got := CountSupport(db, itemset.New(1, 3)); got != 2 {
		t.Fatalf("CountSupport = %d", got)
	}
	if got := CountSupport(db, itemset.New(1, 2, 3)); got != 1 {
		t.Fatalf("CountSupport = %d", got)
	}
}

// TestAprioriGenMatchesNaive: the grouped prefix join must produce exactly
// the candidates a naive all-pairs join with full subset checks produces.
func TestAprioriGenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(3)
		// Random frequent (k-1)-itemsets, downward closure not required for
		// the equivalence (both sides use the same prevSet).
		prevSet := itemset.NewSet()
		var prev []itemset.Itemset
		for len(prev) < 30 {
			raw := make([]uint32, k)
			for j := range raw {
				raw[j] = uint32(rng.Intn(12))
			}
			is := itemset.New(raw...)
			if len(is) == k && !prevSet.Has(is) {
				prevSet.Add(is)
				prev = append(prev, is)
			}
		}
		itemset.Sort(prev)

		cands, _, _ := AprioriGen(prev, prevSet)

		// Naive: all pairs, itemset.Join, all-subset check.
		naive := itemset.NewSet()
		for i := 0; i < len(prev); i++ {
			for j := i + 1; j < len(prev); j++ {
				cand, ok := itemset.Join(prev[i], prev[j])
				if !ok {
					continue
				}
				all := true
				cand.EachSubset(func(sub itemset.Itemset) bool {
					if !prevSet.Has(sub) {
						all = false
						return false
					}
					return true
				})
				if all {
					naive.Add(cand)
				}
			}
		}
		if len(cands) != naive.Len() {
			t.Fatalf("trial %d: AprioriGen %d vs naive %d", trial, len(cands), naive.Len())
		}
		for _, c := range cands {
			if !naive.Has(c) {
				t.Fatalf("trial %d: unexpected candidate %v", trial, c)
			}
		}
	}
}

// gen3Case is one k=3 join input in the MIHP shape: prev holds the
// frequent pairs whose first item lies in the current partition [lo, hi);
// done holds those of the already-processed partitions (first item >= hi),
// which join pruning consults but which never join themselves.
type gen3Case struct {
	name      string
	prev      []itemset.Itemset
	done      []itemset.Itemset
	wantLong  bool // some tail is >= 8x longer than the N+(b) it meets
	wantShort bool // some N+(b) is >= 8x longer than the tail it meets
}

func pairsOf(edges map[[2]uint32]bool, keep func(a uint32) bool) []itemset.Itemset {
	var out []itemset.Itemset
	for e := range edges {
		if keep(e[0]) {
			out = append(out, itemset.New(e[0], e[1]))
		}
	}
	itemset.Sort(out)
	return out
}

func gen3Cases() []gen3Case {
	var cases []gen3Case
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		universe := 10 + rng.Intn(30)
		hi := uint32(2 + rng.Intn(universe-2))
		density := 0.1 + 0.8*rng.Float64()
		edges := map[[2]uint32]bool{}
		for a := 0; a < universe; a++ {
			for b := a + 1; b < universe; b++ {
				if rng.Float64() < density {
					edges[[2]uint32{uint32(a), uint32(b)}] = true
				}
			}
		}
		cases = append(cases, gen3Case{
			name: "random",
			prev: pairsOf(edges, func(a uint32) bool { return a < hi }),
			done: pairsOf(edges, func(a uint32) bool { return a >= hi }),
		})
	}
	// A hub: item 0 pairs with 1..300, so its tail runs far past the two
	// neighbours of each b (long tail, short N+(b)); and item 301 pairs
	// with 302..303 only, while 302 (processed) pairs with 303..700
	// (short tail, long N+(b)).
	skew := map[[2]uint32]bool{}
	for b := uint32(1); b <= 300; b++ {
		skew[[2]uint32{0, b}] = true
		skew[[2]uint32{b, b + 1}] = true
		skew[[2]uint32{b, b + 7}] = true
	}
	skew[[2]uint32{301, 302}] = true
	skew[[2]uint32{301, 303}] = true
	for c := uint32(303); c <= 700; c++ {
		skew[[2]uint32{302, c}] = true
	}
	cases = append(cases, gen3Case{
		name:      "skewed",
		prev:      pairsOf(skew, func(a uint32) bool { return a == 0 || a == 301 }),
		done:      pairsOf(skew, func(a uint32) bool { return a != 0 && a != 301 }),
		wantLong:  true,
		wantShort: true,
	})
	return cases
}

// TestGen3MatchesAprioriGen: the neighbour-list join must equal the generic
// generator — candidates, their order, potential and pruned counts — in the
// MIHP shape, where the adjacency (and AprioriGen's prevSet) also holds the
// pairs of already-processed partitions, which are absent from prev.
func TestGen3MatchesAprioriGen(t *testing.T) {
	for i, tc := range gen3Cases() {
		prevSet := itemset.SetOf(tc.prev...)
		for _, p := range tc.done {
			prevSet.Add(p)
		}
		// Processed partitions first, as MIHP runs them; the current
		// partition's lists must leave the earlier ones untouched.
		adj := Adjacency(nil, tc.done)
		before := map[itemset.Item][]itemset.Item{}
		for it, l := range adj {
			if len(l) > 0 {
				before[itemset.Item(it)] = append([]itemset.Item(nil), l...)
			}
		}
		adj = Adjacency(adj, tc.prev)
		for it, l := range before {
			if !slices.Equal(adj[it], l) {
				t.Fatalf("case %d (%s): extending adj rewrote N+(%d)", i, tc.name, it)
			}
		}

		var long, short bool
		for _, p := range tc.prev {
			tail := 0
			for _, q := range tc.prev {
				if q[0] == p[0] && q[1] > p[1] {
					tail++
				}
			}
			var nb int
			if int(p[1]) < len(adj) {
				nb = len(adj[p[1]])
			}
			long = long || (nb > 0 && tail >= 8*nb)
			short = short || (tail > 0 && nb >= 8*tail)
		}
		if tc.wantLong && !long || tc.wantShort && !short {
			t.Fatalf("case %d (%s): skew not exercised (long %v, short %v)", i, tc.name, long, short)
		}

		got, gp, gpr := Gen3(tc.prev, adj)
		want, wp, wpr := AprioriGen(tc.prev, prevSet)
		if gp != wp || gpr != wpr || len(got) != len(want) {
			t.Fatalf("case %d (%s): Gen3 %d/%d/%d vs AprioriGen %d/%d/%d",
				i, tc.name, len(got), gp, gpr, len(want), wp, wpr)
		}
		for j := range got {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("case %d (%s): candidate %d is %v, AprioriGen has %v", i, tc.name, j, got[j], want[j])
			}
		}
	}
}

// TestGenNextMatchesAprioriGen: the single-set dispatcher agrees with the
// generic generator at k=3 (via Gen3) and beyond.
func TestGenNextMatchesAprioriGen(t *testing.T) {
	for _, tc := range gen3Cases() {
		prev := tc.prev
		for k := 3; len(prev) > 0 && k <= 5; k++ {
			got, gp, gpr := GenNext(prev)
			want, wp, wpr := AprioriGen(prev, itemset.SetOf(prev...))
			if gp != wp || gpr != wpr || len(got) != len(want) {
				t.Fatalf("%s k=%d: GenNext %d/%d/%d vs AprioriGen %d/%d/%d",
					tc.name, k, len(got), gp, gpr, len(want), wp, wpr)
			}
			for j := range got {
				if !slices.Equal(got[j], want[j]) {
					t.Fatalf("%s k=%d: candidate %d is %v, want %v", tc.name, k, j, got[j], want[j])
				}
			}
			prev = got
		}
	}
}

func TestBruteForceKnownAnswer(t *testing.T) {
	db := txdb.New([]txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 2, 3)},
		{TID: 2, Items: itemset.New(1, 2)},
		{TID: 3, Items: itemset.New(3)},
	}, 5)
	r := BruteForce(db, Options{MinSupCount: 2})
	want := map[string]int{
		itemset.New(1).Key():       3,
		itemset.New(2).Key():       3,
		itemset.New(3).Key():       3,
		itemset.New(1, 2).Key():    3,
		itemset.New(1, 3).Key():    2,
		itemset.New(2, 3).Key():    2,
		itemset.New(1, 2, 3).Key(): 2,
	}
	if len(r.Frequent) != len(want) {
		t.Fatalf("found %d itemsets, want %d: %v", len(r.Frequent), len(want), r.Frequent)
	}
	for _, c := range r.Frequent {
		if want[c.Set.Key()] != c.Count {
			t.Fatalf("%v count %d, want %d", c.Set, c.Count, want[c.Set.Key()])
		}
	}
}

func TestBruteForceMaxK(t *testing.T) {
	db := randDB(3, 30, 20, 6)
	r := BruteForce(db, Options{MinSupCount: 2, MaxK: 2})
	for _, c := range r.Frequent {
		if len(c.Set) > 2 {
			t.Fatalf("MaxK violated: %v", c.Set)
		}
	}
}

func TestSameFrequentSets(t *testing.T) {
	a := &Result{Frequent: []itemset.Counted{{Set: itemset.New(1, 2), Count: 3}}}
	b := &Result{Frequent: []itemset.Counted{{Set: itemset.New(1, 2), Count: 3}}}
	if ok, _ := SameFrequentSets(a, b); !ok {
		t.Fatal("identical results reported different")
	}
	b.Frequent[0].Count = 4
	if ok, _ := SameFrequentSets(a, b); ok {
		t.Fatal("count difference not detected")
	}
	b.Frequent[0].Count = 3
	b.Frequent = append(b.Frequent, itemset.Counted{Set: itemset.New(5), Count: 9})
	if ok, _ := SameFrequentSets(a, b); ok {
		t.Fatal("extra itemset not detected")
	}
	dup := &Result{Frequent: []itemset.Counted{
		{Set: itemset.New(1, 2), Count: 3},
		{Set: itemset.New(1, 2), Count: 3},
	}}
	if ok, diff := SameFrequentSets(dup, a); ok {
		t.Fatal("duplicates not detected")
	} else if diff == "" {
		t.Fatal("no diagnostic for duplicates")
	}
}

func TestMetricsMergeAndWork(t *testing.T) {
	a := NewMetrics("a")
	a.AddCandidates(2, 10)
	a.Work.Charge(100, CostScanItem)
	a.NoteCandidateBytes(500)
	a.Passes = 2

	b := NewMetrics("b")
	b.AddCandidates(2, 5)
	b.AddCandidates(3, 7)
	b.NoteCandidateBytes(300)
	b.Work.Charge(50, CostScanItem)
	b.Passes = 1

	a.Merge(&b)
	if a.CandidatesByK[2] != 15 || a.CandidatesByK[3] != 7 {
		t.Fatalf("merged candidates = %v", a.CandidatesByK)
	}
	if a.Candidates() != 22 {
		t.Fatalf("Candidates = %d", a.Candidates())
	}
	if a.PeakCandidateBytes != 500 { // max, not sum
		t.Fatalf("PeakCandidateBytes = %d", a.PeakCandidateBytes)
	}
	if a.Passes != 3 {
		t.Fatalf("Passes = %d", a.Passes)
	}
	if a.Work.Units != 150*CostScanItem {
		t.Fatalf("Work = %d", a.Work.Units)
	}
	if a.Work.Seconds() <= 0 {
		t.Fatal("Seconds not positive")
	}
}

func TestCandidateBytesMonotone(t *testing.T) {
	if CandidateBytes(2, 100) >= CandidateBytes(3, 100) {
		t.Fatal("bytes should grow with k")
	}
	if CandidateBytes(2, 100) >= CandidateBytes(2, 200) {
		t.Fatal("bytes should grow with n")
	}
}

func TestIsMemoryErr(t *testing.T) {
	if !IsMemoryErr(ErrMemoryExceeded) {
		t.Fatal("direct error not recognized")
	}
	if IsMemoryErr(nil) {
		t.Fatal("nil recognized")
	}
}

func TestPass2TreeCharge(t *testing.T) {
	if Pass2TreeCharge(1, 100) != 0 || Pass2TreeCharge(10, 0) != 0 {
		t.Fatal("degenerate inputs should cost nothing")
	}
	// Few paths, small candidate set: paths * 1 leaf entry.
	if got := Pass2TreeCharge(3, 10); got != 3 {
		t.Fatalf("Pass2TreeCharge(3,10) = %d", got)
	}
	// Paths capped at the leaf-bucket count.
	long := Pass2TreeCharge(100, 640)
	if long != int64(Pass2TreeFanout)*(640/int64(Pass2TreeFanout)+1) {
		t.Fatalf("capped charge = %d", long)
	}
	// The charge grows linearly with the candidate-set size — the effect
	// that sinks Apriori on text data.
	if Pass2TreeCharge(50, 1_000_000) <= Pass2TreeCharge(50, 10_000) {
		t.Fatal("leaf-scan cost not growing with candidates")
	}
}
