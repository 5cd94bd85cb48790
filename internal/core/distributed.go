package core

import (
	"slices"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// Exported seams for the multi-process runtime (internal/distmine).
// A distributed node runs exactly the building blocks of MinePMIHP —
// the same local miner, the same global support counting (resolve.go),
// the same F1 and merge construction — with the in-process exchanges
// replaced by a transport.
// Keeping these as shared functions is what makes the byte-identity
// guarantee of the cluster runtime hold by construction rather than by
// parallel maintenance.

// LocalMineConfig configures one node's local MIHP passes against an
// externally assembled global THT cascade.
type LocalMineConfig struct {
	// Self is this node's segment index in the cascade.
	Self int
	// LocalMin is the node-local frequency threshold; GlobalPrune is the
	// threshold the cascaded THT bound must reach (the global minimum).
	LocalMin    int
	GlobalPrune int
	// Global is the cascaded THT view, segment Self being this node's own.
	Global *tht.Global
	// FreqItems lists the globally frequent items, ascending;
	// Partitions is Partition(FreqItems, opts.PartitionSize).
	FreqItems  []itemset.Item
	Partitions [][]itemset.Item
	// Emit receives every locally frequent k-itemset (k >= 2) with its
	// local support count. OnPass, when non-nil, runs after every
	// counting pass.
	Emit   func(set itemset.Itemset, count int)
	OnPass func()
}

// RunLocalMiner executes the node's partition passes, feeding locally
// frequent itemsets to cfg.Emit. It is the exact miner MinePMIHP runs
// in-process.
func RunLocalMiner(db *txdb.DB, opts mining.Options, cfg LocalMineConfig, m *mining.Metrics) {
	lm := &localMiner{
		db:         db,
		opts:       opts,
		minLocal:   cfg.LocalMin,
		minPrune:   cfg.GlobalPrune,
		global:     cfg.Global,
		self:       cfg.Self,
		freqItems:  cfg.FreqItems,
		partitions: cfg.Partitions,
		metrics:    m,
		emit:       cfg.Emit,
		onPass:     cfg.OnPass,
	}
	lm.run()
}

// FrequentItems derives the globally frequent 1-itemsets from the
// all-reduced global item counts: the membership array, the ascending
// item list, and the counted form that seeds the merged result.
func FrequentItems(globalCounts []int, globalMin int) (freq []bool, f1 []itemset.Item, f1Counted []itemset.Counted) {
	freq = make([]bool, len(globalCounts))
	for it, c := range globalCounts {
		if c >= globalMin {
			freq[it] = true
			f1 = append(f1, itemset.Item(it))
			f1Counted = append(f1Counted, itemset.Counted{
				Set: itemset.Itemset{itemset.Item(it)}, Count: c,
			})
		}
	}
	return freq, f1, f1Counted
}

// MergeFound combines the nodes' globally frequent itemsets with the
// frequent 1-itemsets into the final sorted result list. Several nodes
// may report the same itemset (with equal exact counts, or differing
// lower bounds in approx mode); entries are sorted by set and the best
// count per run of equals is kept. all is sorted in place.
func MergeFound(f1Counted []itemset.Counted, all []itemset.Counted) []itemset.Counted {
	slices.SortFunc(all, func(a, b itemset.Counted) int { return itemset.Compare(a.Set, b.Set) })
	frequent := append([]itemset.Counted(nil), f1Counted...)
	for i := 0; i < len(all); {
		best := all[i]
		j := i + 1
		for ; j < len(all) && itemset.Compare(all[j].Set, best.Set) == 0; j++ {
			if all[j].Count > best.Count {
				best.Count = all[j].Count
			}
		}
		frequent = append(frequent, best)
		i = j
	}
	itemset.SortCounted(frequent)
	return frequent
}
