package core

import (
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// PollGroup is the part of one flush bound for one peer: Len itemsets,
// all of K items, taken in place from the flushed queue so that a runtime
// can send them in pieces without copying the whole group first.
type PollGroup struct {
	Peer, K int
	sets    []itemset.Itemset // the flushed queue
	pos     []int             // the group's positions in sets
	totals  []int             // the queue's global counts so far
}

// Len returns the number of itemsets in the group.
func (g PollGroup) Len() int { return len(g.pos) }

// Sets returns the group's itemsets lo..hi-1 in a new slice.
func (g PollGroup) Sets(lo, hi int) []itemset.Itemset {
	out := make([]itemset.Itemset, hi-lo)
	for i, pos := range g.pos[lo:hi] {
		out[i] = g.sets[pos]
	}
	return out
}

// Add adds the peer's local support count of the group's i-th itemset.
func (g PollGroup) Add(i, count int) { g.totals[g.pos[i]] += count }

// PollFunc asks g.Peer for its local support counts of the group's
// itemsets and Adds each one. Each runtime supplies its own: the simulator
// calls the peer's PollCounter and charges the messages to the fabric, the
// multi-process runtime sends the sets over its exchange.
type PollFunc func(g PollGroup) error

// ResolverConfig configures one node's global support counting.
type ResolverConfig struct {
	// Self is this node's segment index in the cascade.
	Self int
	// GlobalMin is the global minimum support count.
	GlobalMin int
	// ApproxDirectCounts records itemsets whose local count already
	// reaches GlobalMin at once, with that count, instead of polling them
	// (see PMIHPConfig.ApproxDirectCounts).
	ApproxDirectCounts bool
	// Global is the cascaded THT view that selects the peers to poll.
	Global *tht.Global
	// Metrics is the node's mining accounting: it is charged the global
	// candidates, the THT slot work of peer selection, and poll rounds.
	Metrics *mining.Metrics
	Poll    PollFunc
}

// Resolver is section 2.4 step 5 for one node, shared by both runtimes:
// Emit classifies each locally frequent itemset and queues it, Flush polls
// "only the processing nodes that have a positive TID hash count for the
// global candidate itemset", sums their counts and keeps the itemsets that
// reach the global minimum. A Resolver belongs to its node's miner
// goroutine and is not safe for concurrent use.
type Resolver struct {
	cfg         ResolverConfig
	queueSets   []itemset.Itemset
	queueCounts []int
	peersBuf    []int
	found       []itemset.Counted
}

// NewResolver returns an empty resolver.
func NewResolver(cfg ResolverConfig) *Resolver { return &Resolver{cfg: cfg} }

// Emit classifies one locally frequent itemset: a global candidate (local
// count below the global minimum) is counted and queued; a directly
// globally frequent one is queued too, so its recorded support is the
// exact global count, unless ApproxDirectCounts records it as it is.
func (r *Resolver) Emit(set itemset.Itemset, count int) {
	if count < r.cfg.GlobalMin {
		r.cfg.Metrics.GlobalCandidates++
	} else if r.cfg.ApproxDirectCounts {
		r.found = append(r.found, itemset.Counted{Set: set, Count: count})
		return
	}
	r.queueSets = append(r.queueSets, set)
	r.queueCounts = append(r.queueCounts, count)
}

// Flush resolves the queue once it holds at least threshold itemsets. The
// peers of each itemset come from the cascaded THT; the itemsets for one
// peer are grouped by size, and each group is one Poll call. Threshold 0
// is the node's last flush: it resolves whatever is queued, and the
// resolver lets go of the cascade once the peers are picked, so a runtime
// that holds no other reference to it can reclaim it while the polls run.
// Neither Emit nor Flush may follow it.
func (r *Resolver) Flush(threshold int) error {
	sets, totals := r.queueSets, r.queueCounts
	if len(sets) == 0 || len(sets) < threshold {
		return nil
	}
	r.queueSets, r.queueCounts = nil, nil

	type peerK struct{ peer, k int }
	groups := make(map[peerK][]int)
	slots := int64(0)
	for pos, set := range sets {
		peers, cost := r.cfg.Global.PollPeers(set, r.cfg.Self, r.peersBuf)
		r.peersBuf = peers
		slots += int64(cost)
		for _, p := range peers {
			g := peerK{p, len(set)}
			groups[g] = append(groups[g], pos)
		}
	}
	r.cfg.Metrics.Work.Charge(slots, mining.CostTHTSlot)
	if threshold == 0 {
		r.cfg.Global = nil
	}
	if len(groups) > 0 {
		r.cfg.Metrics.PollRounds++
	}
	for g, positions := range groups {
		if err := r.cfg.Poll(PollGroup{Peer: g.peer, K: g.k, sets: sets, pos: positions, totals: totals}); err != nil {
			return err
		}
	}
	for i, set := range sets {
		if totals[i] >= r.cfg.GlobalMin {
			r.found = append(r.found, itemset.Counted{Set: set, Count: totals[i]})
		}
	}
	return nil
}

// Found returns the node's globally frequent itemsets resolved so far.
func (r *Resolver) Found() []itemset.Counted { return r.found }

// PollCounter answers peers' support-count polls from an inverted
// posting file over the node's original (untrimmed) local database, so
// answers are exact; serving polls costs the node counting work that
// trimming would have saved, the paper's trade-off between polling and
// trimming. The posting file is built lazily at the first count, so nodes
// that are never polled pay nothing. Not safe for concurrent use; both
// runtimes serialize a node's poll service.
type PollCounter struct {
	db        *txdb.DB
	workers   int
	threshold float64
	inv       *postings
}

// NewPollCounter returns a counter over db using up to workers goroutines
// for the one-time posting build and for batch counting. denseThreshold
// selects the hybrid posting layout (see mining.Options.DenseThreshold).
func NewPollCounter(db *txdb.DB, workers int, denseThreshold float64) *PollCounter {
	return &PollCounter{db: db, workers: workers, threshold: denseThreshold}
}

// Serve answers one poll at node self: it accounts the k-itemsets as
// candidates counted, reports the batch to rec, and counts them, charging
// the work to m.
func (p *PollCounter) Serve(self, k int, sets []itemset.Itemset, m *mining.Metrics, rec *obs.Recorder) []int {
	m.AddCandidates(k, len(sets))
	if rec.Enabled() {
		rec.Poll(obs.PollEvent{Node: self, K: k, Sets: len(sets)})
	}
	return p.CountBatch(sets, m)
}

// CountBatch counts a whole poll batch, sharding the itemsets across the
// counter's workers with per-shard scratch. Per-shard merge charges fold
// into m in shard order, so results and charges are identical at any
// worker count. The first call builds the posting file, charging the
// build to m and noting its size as held bytes.
func (p *PollCounter) CountBatch(sets []itemset.Itemset, m *mining.Metrics) []int {
	if p.inv == nil {
		p.inv = buildPostings(p.db, m, p.workers, p.threshold)
		m.NoteHeldBytes(p.inv.MemBytes())
	}
	return countBatchSharded(p.inv, sets, p.workers, m)
}

// countBatchSharded intersects a batch of itemsets against the inverted
// file on the chunk-queue scheduler, each worker with private scratch.
// Each itemset's count and merge charge are independent of the others and
// land in its own slot, and per-worker charge tallies accumulate across
// claimed chunks and merge as sums, so the serial charges are reproduced
// exactly at any worker count.
func countBatchSharded(inv *postings, sets []itemset.Itemset, workers int, m *mining.Metrics) []int {
	counts := make([]int, len(sets))
	nShards := mining.NumShards(len(sets), workers)
	inv.ensureScratch(nShards)
	shardOps := make([]int64, nShards)
	mining.RunShards(len(sets), workers, func(s, lo, hi int) {
		sc := inv.scratchFor(s)
		var ops int64
		for i := lo; i < hi; i++ {
			n, o := inv.countScratch(sets[i], sc)
			counts[i] = n
			ops += o
		}
		shardOps[s] += ops
	})
	for _, ops := range shardOps {
		m.Work.Charge(ops, 1)
	}
	return counts
}

// Splitter returns the database-to-node split a partitioner selects. Both
// cut along chronological order and differ only in where the cuts fall
// (equal document counts, or equal estimated counting work), so every part
// is a contiguous chronological range and their union is the database.
func Splitter(p mining.Partitioner) func(db *txdb.DB, n int) []*txdb.DB {
	if p == mining.PartitionByWork {
		return (*txdb.DB).SplitByWork
	}
	return (*txdb.DB).SplitChronological
}

// NodeTHTEntries is the per-node THT size on n nodes: the global table's
// entries divided evenly, at least 4 (the paper's 400 entries give 50 per
// node on 8 nodes).
func NodeTHTEntries(entries, n int) int { return max(entries/n, 4) }
