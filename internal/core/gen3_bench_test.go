package core

import (
	"sync"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
)

// gen3Input is one k=3 join exactly as node 0 of a two-way split meets it:
// prev is the F2 of one partition, adj the neighbour lists of that
// partition and of every partition the miner processed before it.
type gen3Input struct {
	prev []itemset.Itemset
	adj  [][]itemset.Item
}

var (
	gen3Once  sync.Once
	gen3Cache gen3Input
)

// fig6Gen3Input builds the join input of the paper's Fig-6 regime —
// corpus B at harness scale, minimum support count 2, split two ways —
// for node 0's partition with the most locally frequent pairs. The F2
// comes from the real miner (MaxK 2), driven as MinePMIHP drives it.
// Built once per process: the benchmark framework calls a benchmark
// several times.
func fig6Gen3Input(b *testing.B) gen3Input {
	gen3Once.Do(func() {
		db := smallDB(b, corpus.CorpusB(corpus.Harness))
		opts := mining.Options{MinSupCount: 2, MaxK: 2}.WithDefaults()
		parts := db.SplitChronological(2)
		locals := make([]*tht.Local, len(parts))
		counts := make([]int, db.NumItems())
		for i, p := range parts {
			var c []int
			locals[i], c = tht.BuildLocalShards(p, opts.THTEntries/len(parts), 1)
			for it, v := range c {
				counts[it] += v
			}
		}
		globalMin := opts.MinCount(db.Len())
		freq, f1, _ := FrequentItems(counts, globalMin)
		for _, l := range locals {
			l.Retain(func(it itemset.Item) bool { return freq[it] })
			l.BuildMasks()
		}
		partitions := Partition(f1, opts.PartitionSize)
		var f2 []itemset.Itemset
		m := mining.NewMetrics("bench")
		RunLocalMiner(parts[0], opts, LocalMineConfig{
			LocalMin:    LocalMinCount(globalMin, parts[0].Len(), db.Len()),
			GlobalPrune: globalMin,
			Global:      tht.NewGlobal(locals),
			FreqItems:   f1,
			Partitions:  partitions,
			Emit:        func(set itemset.Itemset, _ int) { f2 = append(f2, set) },
		}, &m)
		itemset.Sort(f2)

		// The F2 of partition p is the sorted run of pairs whose first
		// item lies in it; the miner runs partitions from last to first.
		lo := len(f2)
		var adj [][]itemset.Item
		for p := len(partitions) - 1; p >= 0; p-- {
			hi := lo
			for lo > 0 && f2[lo-1][0] >= partitions[p][0] {
				lo--
			}
			adj = mining.Adjacency(adj, f2[lo:hi])
			if hi-lo > len(gen3Cache.prev) {
				// Later (lower) partitions only add lists for their own
				// first items, so this adj serves this partition's join.
				gen3Cache = gen3Input{prev: f2[lo:hi], adj: adj}
			}
		}
	})
	if len(gen3Cache.prev) == 0 {
		b.Fatal("no locally frequent pairs to join")
	}
	return gen3Cache
}

// BenchmarkKernelGen3 times the k=3 join — neighbour-list intersection
// plus subset pruning — on the largest partition of the Fig-6 regime.
func BenchmarkKernelGen3(b *testing.B) {
	in := fig6Gen3Input(b)
	potential := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, potential, _ = mining.Gen3(in.prev, in.adj)
	}
	b.ReportMetric(float64(potential), "potential/op")
}
