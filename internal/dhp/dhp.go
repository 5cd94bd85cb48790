// Package dhp implements the Direct Hashing and Pruning algorithm (Park,
// Chen & Yu, TKDE 1997). DHP augments Apriori with (a) a hash filter: while
// counting k-itemsets, all (k+1)-itemsets of each transaction are hashed
// into a bucket array, and a candidate of the next pass is kept only if its
// bucket count reaches the minimum support; and (b) the full-strength
// transaction trimming and pruning rule that MIHP adopts in weakened form.
//
// The paper cites DHP as one of the algorithms that are "ineffective in
// mining association rules in the text databases": with documents as
// transactions the number of hashed 2-itemsets per transaction is in the
// thousands, so the buckets saturate and stop discriminating. The bucket
// accounting below shows precisely that effect.
package dhp

import (
	"pmihp/internal/hashtree"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// NumBuckets is the size of the per-pass hash filter. The original paper
// sizes it to available memory; this default is proportionate to the text
// workloads used in the experiments.
const NumBuckets = 1 << 20

func bucketOfPair(a, b itemset.Item) int {
	return int((uint64(a)*2654435761 + uint64(b)) % NumBuckets)
}

func bucketOfSet(s itemset.Itemset) int {
	h := uint64(14695981039346656037)
	for _, it := range s {
		h = (h ^ uint64(it)) * 1099511628211
	}
	return int(h % NumBuckets)
}

// Mine runs DHP over the database.
func Mine(db *txdb.DB, opts mining.Options) (*mining.Result, error) {
	opts = opts.WithDefaults()
	minCount := opts.MinCount(db.Len())
	res := &mining.Result{Metrics: mining.NewMetrics("dhp")}
	m := &res.Metrics

	// Pass 1: item counts plus the H2 bucket filter over all 2-itemsets of
	// every transaction.
	counts := db.ItemCounts()
	m.Passes++
	h2 := make([]int32, NumBuckets)
	h2Valid := true
	db.Each(func(t *txdb.Transaction) {
		m.Work.Charge(int64(len(t.Items)), mining.CostScanItem)
		l := len(t.Items)
		if l*(l-1)/2 > maxHashedSubsets {
			h2Valid = false
			return
		}
		for i := 0; i < l; i++ {
			for j := i + 1; j < l; j++ {
				h2[bucketOfPair(t.Items[i], t.Items[j])]++
			}
		}
		m.Work.Charge(int64(l*(l-1)/2), mining.CostBucket)
	})

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
	if opts.MaxK == 1 || len(f1) < 2 {
		itemset.SortCounted(res.Frequent)
		return res, nil
	}

	// C2: frequent pairs surviving the bucket filter (when it is valid).
	var c2 []uint64
	c2Index := make(map[uint64]int32)
	for i := 0; i < len(f1); i++ {
		for j := i + 1; j < len(f1); j++ {
			m.Work.Charge(1, mining.CostBucket)
			if !h2Valid || h2[bucketOfPair(f1[i], f1[j])] >= int32(minCount) {
				key := uint64(f1[i])<<32 | uint64(f1[j])
				c2Index[key] = int32(len(c2))
				c2 = append(c2, key)
			} else {
				m.PrunedByBucket++
			}
		}
	}
	h2 = nil
	m.AddCandidates(2, len(c2))
	m.Work.Charge(int64(len(c2)), mining.CostCandidateGen)
	m.NoteCandidateBytes(mining.CandidateBytes(2, len(c2)) + NumBuckets*4)
	if opts.MemoryBudget > 0 && m.PeakCandidateBytes > opts.MemoryBudget {
		return res, mining.ErrMemoryExceeded
	}

	// Pass 2: count C2, hash 3-itemsets, trim/prune transactions.
	work := txdb.NewWork(db)
	c2Counts := make([]int32, len(c2))
	h3 := make([]int32, NumBuckets)
	h3Valid := true
	m.Passes++
	hits := make(map[itemset.Item]int32)
	work.EachIndexed(func(ti int, _ txdb.TID, items itemset.Itemset) {
		m.Work.Charge(int64(len(items)), mining.CostScanItem)
		fit := make(itemset.Itemset, 0, len(items))
		for _, it := range items {
			if frequent[it] {
				fit = append(fit, it)
			}
		}
		clearHits(hits)
		matched := 0
		m.Work.Charge(mining.Pass2TreeCharge(len(fit), len(c2)), 1)
		for i := 0; i < len(fit); i++ {
			for j := i + 1; j < len(fit); j++ {
				if idx, ok := c2Index[uint64(fit[i])<<32|uint64(fit[j])]; ok {
					c2Counts[idx]++
					m.Work.Charge(1, mining.CostCandidateHit)
					matched++
					hits[fit[i]]++
					hits[fit[j]]++
				}
			}
		}
		// Hash the 3-itemsets of the (trimmed) transaction into H3.
		kept := make(itemset.Itemset, 0, len(fit))
		for _, it := range fit {
			if opts.DisableTrimming || hits[it] >= 2 {
				kept = append(kept, it)
			} else {
				m.TrimmedItems++
			}
		}
		if !opts.DisableTrimming && (matched < 2 || len(kept) < 3) {
			work.Prune(ti)
			m.PrunedTx++
			return
		}
		work.Trim(ti, kept)
		if !hashSubsets(kept, 3, h3, maxHashedSubsets) {
			h3Valid = false
		} else {
			n := len(kept)
			m.Work.Charge(int64(n*(n-1)*(n-2)/6), mining.CostBucket)
		}
	})
	if !h3Valid {
		h3 = nil
	}

	var prev []itemset.Itemset
	for i, key := range c2 {
		if int(c2Counts[i]) >= minCount {
			pair := itemset.Itemset{itemset.Item(key >> 32), itemset.Item(key & 0xffffffff)}
			res.Frequent = append(res.Frequent, itemset.Counted{Set: pair, Count: int(c2Counts[i])})
			prev = append(prev, pair)
		}
	}
	itemset.Sort(prev)

	// Passes k >= 3: prefix join + subset pruning + bucket pruning + trees.
	bucket := h3
	for k := 3; len(prev) >= 2 && (opts.MaxK == 0 || k <= opts.MaxK); k++ {
		cands, potential, prunedSub := mining.GenNext(prev)
		m.Work.Charge(int64(potential), mining.CostCandidateGen)
		m.PrunedBySubset += int64(prunedSub)
		if bucket != nil {
			kept := cands[:0]
			for _, c := range cands {
				m.Work.Charge(1, mining.CostBucket)
				if bucket[bucketOfSet(c)] >= int32(minCount) {
					kept = append(kept, c)
				} else {
					m.PrunedByBucket++
				}
			}
			cands = kept
		}
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
		next := make([]int32, NumBuckets)
		nextValid := true
		work.EachIndexed(func(ti int, _ txdb.TID, items itemset.Itemset) {
			m.Work.Charge(int64(len(items)), mining.CostScanItem)
			clearHits(hits)
			matched := 0
			tree.VisitTx(items, func(c int) {
				tree.Counts()[c]++
				m.Work.Charge(1, mining.CostCandidateHit)
				matched++
				for _, it := range tree.Candidate(c) {
					hits[it]++
				}
			})
			if opts.DisableTrimming {
				return
			}
			if matched < k {
				work.Prune(ti)
				m.PrunedTx++
				return
			}
			kept := make(itemset.Itemset, 0, len(items))
			for _, it := range items {
				if hits[it] >= int32(k) {
					kept = append(kept, it)
				} else {
					m.TrimmedItems++
				}
			}
			if len(kept) < k+1 {
				work.Prune(ti)
				m.PrunedTx++
				return
			}
			work.Trim(ti, kept)
			if !hashSubsets(kept, k+1, next, maxHashedSubsets) {
				nextValid = false
			}
		})
		m.Work.Charge(tree.WalkCost(), 1)
		if !nextValid {
			next = nil
		}
		bucket = next

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

func bucketHash3(a, b, c itemset.Item) int {
	return bucketOfSet(itemset.Itemset{a, b, c})
}

// hashSubsets hashes every k-subset of items into the bucket array and
// reports whether it enumerated completely. Bucket counts must upper-bound
// true supports for the filter to be sound, so when a long text transaction
// would produce more than maxSubsets subsets the enumeration is skipped and
// the caller must invalidate the bucket array (this is precisely the regime
// in which the paper calls DHP ineffective for text: the filter either
// saturates or becomes intractable to build).
func hashSubsets(items itemset.Itemset, k int, bucket []int32, maxSubsets int) bool {
	if len(items) < k {
		return true
	}
	if !binomialAtMost(len(items), k, maxSubsets) {
		return false
	}
	var rec func(start int, cur itemset.Itemset)
	rec = func(start int, cur itemset.Itemset) {
		if len(cur) == k {
			bucket[bucketOfSet(cur)]++
			return
		}
		for i := start; i <= len(items)-(k-len(cur)); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, make(itemset.Itemset, 0, k))
	return true
}

// maxHashedSubsets bounds the per-transaction filter-build effort.
const maxHashedSubsets = 20000

// binomialAtMost reports whether C(n, k) <= limit without overflow.
func binomialAtMost(n, k, limit int) bool {
	if k > n {
		return true
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c > limit {
			return false
		}
	}
	return true
}

func clearHits(m map[itemset.Item]int32) {
	for k := range m {
		delete(m, k)
	}
}
