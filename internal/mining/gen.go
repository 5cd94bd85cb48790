package mining

import "pmihp/internal/itemset"

// AprioriGen implements candidate generation shared by Apriori, Count
// Distribution, DHP and MIHP: the prefix self-join of the frequent
// (k-1)-itemsets followed by subset-infrequency pruning (every (k-1)-subset
// of a surviving candidate must be in prevSet).
//
// prev must be sorted lexicographically (itemset.Sort order); prevSet must
// contain at least the itemsets of prev (MIHP passes the accumulated F_{k-1}
// across partitions, which is a superset). It returns the surviving
// candidates in lexicographic order, the number of potential candidates the
// join produced, and the number removed by subset pruning.
func AprioriGen(prev []itemset.Itemset, prevSet *itemset.Set) (cands []itemset.Itemset, potential, pruned int) {
	if len(prev) == 0 {
		return nil, 0, 0
	}
	k := len(prev[0]) + 1
	subBuf := make(itemset.Itemset, k-1)
	candBuf := make(itemset.Itemset, k)
	var arena Arena
	// Joinable itemsets share their first k-2 items and are adjacent in
	// lexicographic order, so scan prefix groups.
	for lo := 0; lo < len(prev); {
		hi := lo + 1
		for hi < len(prev) && samePrefix(prev[lo], prev[hi]) {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				// prev is sorted, so within a prefix group the final items
				// are distinct and ascending: the join is the shared prefix
				// plus both final items in order.
				copy(candBuf, prev[i])
				candBuf[k-1] = prev[j][k-2]
				potential++
				if hasAllSubsetsBuf(candBuf, prevSet, subBuf) {
					c := arena.Alloc(k)
					copy(c, candBuf)
					cands = append(cands, c)
				} else {
					pruned++
				}
			}
		}
		lo = hi
	}
	return cands, potential, pruned
}

// Adjacency sets adj[a] to the ascending neighbour list N+(a) = {b : {a,b}
// in prev} for every first item a of the sorted 2-itemsets prev, growing
// adj as needed, and returns it. The lists share one backing array and are
// never modified afterwards, so MIHP extends one adj partition by partition.
func Adjacency(adj [][]itemset.Item, prev []itemset.Itemset) [][]itemset.Item {
	if len(prev) == 0 {
		return adj
	}
	if top := int(prev[len(prev)-1][0]) + 1; top > len(adj) {
		adj = append(adj, make([][]itemset.Item, top-len(adj))...)
	}
	seconds, lo := make([]itemset.Item, len(prev)), 0
	for i, p := range prev {
		seconds[i] = p[1]
		if i+1 == len(prev) || prev[i+1][0] != p[0] {
			adj[p[0]], lo = seconds[lo:i+1:i+1], i+1
		}
	}
	return adj
}

// GenNext is the candidate generation of the miners that prune against
// prev itself (Apriori, Count and Data Distribution, DHP).
func GenNext(prev []itemset.Itemset) (cands []itemset.Itemset, potential, pruned int) {
	if len(prev) > 0 && len(prev[0]) == 2 {
		return Gen3(prev, Adjacency(nil, prev))
	}
	return AprioriGen(prev, itemset.SetOf(prev...))
}

// Gen3 is AprioriGen specialized to k=3. adj holds the neighbour lists of
// prev and of any further frequent 2-itemsets that subset pruning may use
// (MIHP's already-processed partitions), so adj[a] is a's prefix-group
// tail, and {a,b,c} survives exactly where the tail after b meets N+(b):
// one sorted merge per (a,b) replaces a membership probe per candidate.
// Candidates, their order, and the counts equal AprioriGen's.
func Gen3(prev []itemset.Itemset, adj [][]itemset.Item) (cands []itemset.Itemset, potential, pruned int) {
	// Survivors pack into one pointer-free array, sliced into candidates
	// at the end: growing it costs no write barriers or GC scanning.
	var flat []itemset.Item
	for lo := 0; lo < len(prev); {
		a := prev[lo][0]
		tail := adj[a]
		lo += len(tail)
		for i, b := range tail {
			rest := tail[i+1:]
			potential += len(rest)
			if int(b) >= len(adj) {
				continue
			}
			nb := adj[b]
			// Which list advances is unpredictable, so the steps are
			// computed, not branched on: item ids are far below 2^63, so
			// the 64-bit difference d-c wraps to its top bit exactly when
			// c > d.
			for x, y := 0, 0; x < len(rest) && y < len(nb); {
				c, d := uint64(rest[x]), uint64(nb[y])
				if c == d {
					flat = append(flat, a, b, rest[x])
				}
				x += 1 - int((d-c)>>63) // c <= d
				y += 1 - int((c-d)>>63) // d <= c
			}
		}
	}
	cands = make([]itemset.Itemset, len(flat)/3)
	for i := range cands {
		cands[i] = flat[3*i : 3*i+3 : 3*i+3]
	}
	return cands, potential, potential - len(cands)
}

// samePrefix reports whether a and b (same length) agree on all but the
// final item.
func samePrefix(a, b itemset.Itemset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasAllSubsetsBuf reports whether every (k-1)-subset of cand is in prevSet,
// writing scratch subsets into buf (len k-1). The two subsets obtained by
// dropping one of the final two items equal the join parents and are
// skipped.
func hasAllSubsetsBuf(cand itemset.Itemset, prevSet *itemset.Set, buf itemset.Itemset) bool {
	k := len(cand)
	for i := 0; i < k-2; i++ {
		copy(buf, cand[:i])
		copy(buf[i:], cand[i+1:])
		if !prevSet.Has(buf) {
			return false
		}
	}
	return true
}
