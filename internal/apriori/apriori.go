// Package apriori implements the classic sequential Apriori algorithm
// (Agrawal & Srikant, VLDB 1994) — the baseline the paper measures MIHP
// against in Figure 4 and the foundation of the Count Distribution parallel
// baseline.
//
// Candidate 2-itemsets are conceptually the full self-join of the frequent
// items; with text databases that set is enormous (the paper reports ~82
// million candidate 2-itemsets on the 8-day WSJ sample), which is exactly
// why Apriori exhausts memory at low support levels. We account candidate
// memory and generation work for the full C2 — reproducing the paper's OOM
// behaviour under Options.MemoryBudget — while physically counting only the
// pairs that occur in the database (pairs occurring zero times cannot become
// frequent, so the mining output is identical).
package apriori

import (
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// Mine runs Apriori over the database and returns every frequent itemset.
// It returns mining.ErrMemoryExceeded when the candidate set outgrows
// opts.MemoryBudget (partial metrics are still returned in the result).
func Mine(db *txdb.DB, opts mining.Options) (*mining.Result, error) {
	opts = opts.WithDefaults()
	minCount := opts.MinCount(db.Len())
	res := &mining.Result{Metrics: mining.NewMetrics("apriori")}
	m := &res.Metrics

	// Pass 1: count items.
	counts := db.ItemCounts()
	m.Passes++
	total := 0
	db.Each(func(t *txdb.Transaction) { total += len(t.Items) })
	m.Work.Charge(int64(total), mining.CostScanItem)

	frequent := make([]bool, db.NumItems())
	var f1 []itemset.Item
	for it, c := range counts {
		if c >= minCount {
			frequent[it] = true
			f1 = append(f1, itemset.Item(it))
			res.Frequent = append(res.Frequent, itemset.Counted{
				Set: itemset.Itemset{itemset.Item(it)}, Count: c,
			})
		}
	}
	m.AddCandidates(1, db.NumItems())
	if opts.MaxK == 1 || len(f1) < 2 {
		itemset.SortCounted(res.Frequent)
		return res, nil
	}

	// Pass 2: conceptually all pairs of frequent items.
	nPairs := len(f1) * (len(f1) - 1) / 2
	m.AddCandidates(2, nPairs)
	m.Work.Charge(int64(nPairs), mining.CostCandidateGen)
	m.NoteCandidateBytes(mining.CandidateBytes(2, nPairs))
	if opts.MemoryBudget > 0 && m.PeakCandidateBytes > opts.MemoryBudget {
		return res, mining.ErrMemoryExceeded
	}

	pairCounts := make(map[uint64]int)
	m.Passes++
	buf := make(itemset.Itemset, 0, 256)
	db.Each(func(t *txdb.Transaction) {
		m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
		buf = buf[:0]
		for _, it := range t.Items {
			if frequent[it] {
				buf = append(buf, it)
			}
		}
		for i := 0; i < len(buf); i++ {
			for j := i + 1; j < len(buf); j++ {
				pairCounts[pairKey(buf[i], buf[j])]++
			}
		}
		n := len(buf)
		m.Work.Charge(mining.Pass2TreeCharge(n, nPairs), 1)
		m.Work.Charge(int64(n*(n-1)/2), mining.CostCandidateHit)
	})

	var prev []itemset.Itemset
	for key, c := range pairCounts {
		if c >= minCount {
			pair := pairFromKey(key)
			res.Frequent = append(res.Frequent, itemset.Counted{Set: pair, Count: c})
			prev = append(prev, pair)
		}
	}
	itemset.Sort(prev)

	// Passes k >= 3: prefix join + subset pruning + hash-tree counting.
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := mining.GenNext(prev)
		m.Work.Charge(int64(potential), mining.CostCandidateGen)
		m.PrunedBySubset += int64(prunedSub)
		if len(cands) == 0 {
			break
		}
		m.AddCandidates(k, len(cands))
		m.NoteCandidateBytes(mining.CandidateBytes(k, len(cands)))
		if opts.MemoryBudget > 0 && m.PeakCandidateBytes > opts.MemoryBudget {
			itemset.SortCounted(res.Frequent)
			return res, mining.ErrMemoryExceeded
		}

		tree := hashtree.Build(k, cands)
		m.Work.Charge(int64(len(cands)), mining.CostTreeInsert)
		m.Passes++
		db.Each(func(t *txdb.Transaction) {
			m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
			hits := tree.CountTx(t.Items)
			m.Work.Charge(int64(hits), mining.CostCandidateHit)
		})
		m.Work.Charge(tree.WalkCost(), 1)

		prev = prev[:0]
		for i := 0; i < tree.Len(); i++ {
			if c := tree.Count(i); c >= minCount {
				res.Frequent = append(res.Frequent, itemset.Counted{Set: tree.Candidate(i), Count: c})
				prev = append(prev, tree.Candidate(i))
			}
		}
		itemset.Sort(prev)
	}

	m.NoteHeldBytes(db.MemBytes() + m.PeakCandidateBytes)
	itemset.SortCounted(res.Frequent)
	return res, nil
}

// pairKey packs two items (a < b) into one comparable key.
func pairKey(a, b itemset.Item) uint64 { return uint64(a)<<32 | uint64(b) }

func pairFromKey(key uint64) itemset.Itemset {
	return itemset.Itemset{itemset.Item(key >> 32), itemset.Item(key & 0xffffffff)}
}
