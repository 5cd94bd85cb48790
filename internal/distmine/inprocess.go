package distmine

import (
	"fmt"
	"sync"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// NodeStats is the per-node outcome of a cluster run: measured wire
// traffic and the wall-clock seconds of each exchange phase.
type NodeStats struct {
	Node int
	Docs int
	Wire transport.WireStatsSnapshot
	// PhaseSeconds: [0] item-count exchange, [1] THT exchange,
	// [2] candidate polling, [3] final barrier.
	PhaseSeconds [4]float64
	// BusySeconds is the node's deterministic modeled busy time (mining
	// plus poll service, from the work-unit accounting).
	BusySeconds float64
}

// Result is the outcome of a distmine cluster run (in-process or
// multi-process).
type Result struct {
	// Frequent is the merged globally frequent itemset list, identical
	// to core.MinePMIHP's on the same inputs.
	Frequent []itemset.Counted
	// Metrics aggregates the nodes' mining and poll-service accounting;
	// its Wire* fields carry the cluster-wide measured traffic.
	Metrics mining.Metrics
	Nodes   []NodeStats
	// Imbalance is the run's pass-imbalance ratio max(busy)*n/sum(busy)
	// over the nodes' modeled busy seconds: 1.0 is a perfectly balanced
	// split, n is one node doing all the work. Deterministic for a given
	// database and partitioning.
	Imbalance float64
}

// imbalanceRatio computes max(busy)*n/sum(busy) (0 when no node
// reported busy time).
func imbalanceRatio(busy []float64) float64 {
	var max, sum float64
	for _, b := range busy {
		if b > max {
			max = b
		}
		sum += b
	}
	if sum <= 0 {
		return 0
	}
	return max * float64(len(busy)) / sum
}

// params resolves the cluster-wide session parameters from the options,
// once, at the coordinator (or the in-process driver) — nodes receive
// resolved values and never re-derive them.
func params(db *txdb.DB, opts mining.Options) (NodeParams, mining.Options) {
	opts = opts.WithDefaults()
	return NodeParams{
		TotalDocs:      db.Len(),
		NumItems:       db.NumItems(),
		GlobalMin:      opts.MinCount(db.Len()),
		THTEntries:     opts.THTEntries,
		PartitionSize:  opts.PartitionSize,
		MaxK:           opts.MaxK,
		Workers:        opts.IntraNodeWorkers,
		DenseThreshold: opts.DenseThreshold,
		Partitioner:    opts.Partitioner,
	}, opts
}

// assemble folds the nodes' terminal reports into the cluster result:
// every node's globally frequent itemsets merged with F1 (from node 0's
// global item counts), per-node stats, and cluster-wide wire totals. The
// coordinator and MineInProcess both finish here.
func assemble(parts []*txdb.DB, p NodeParams, dones []transport.NodeDone) (*Result, error) {
	if len(dones[0].GlobalCounts) != p.NumItems {
		return nil, fmt.Errorf("distmine: node 0 reported %d global item counts, want %d",
			len(dones[0].GlobalCounts), p.NumItems)
	}
	globalCounts := make([]int, p.NumItems)
	for it, c := range dones[0].GlobalCounts {
		globalCounts[it] = int(c)
	}
	_, _, f1Counted := core.FrequentItems(globalCounts, p.GlobalMin)
	var all []itemset.Counted
	for _, done := range dones {
		all = append(all, done.Found...)
	}
	res := &Result{
		Frequent: core.MergeFound(f1Counted, all),
		Metrics:  mining.NewMetrics("distmine"),
		Nodes:    make([]NodeStats, len(dones)),
	}
	busy := make([]float64, len(dones))
	for i, done := range dones {
		busy[i] = done.BusySeconds
		ns := NodeStats{Node: i, Docs: parts[i].Len(), Wire: done.Stats, PhaseSeconds: done.PhaseSeconds, BusySeconds: done.BusySeconds}
		res.Nodes[i] = ns
		res.Metrics.WireMessagesSent += ns.Wire.MessagesSent
		res.Metrics.WireMessagesReceived += ns.Wire.MessagesReceived
		res.Metrics.WireBytesSent += ns.Wire.BytesSent
		res.Metrics.WireBytesReceived += ns.Wire.BytesReceived
		res.Metrics.WireRetries += ns.Wire.Retries
		for _, sec := range ns.PhaseSeconds {
			res.Metrics.WireSeconds += sec
		}
	}
	res.Imbalance = imbalanceRatio(busy)
	return res, nil
}

// MineInProcess runs the distributed node protocol on n in-process
// nodes connected by the channel exchange — same protocol, no sockets.
// It exists for tests and as the reference the TCP runtime is checked
// against; both produce frequent itemsets byte-identical to
// core.MinePMIHP in exact mode.
func MineInProcess(db *txdb.DB, n int, opts mining.Options) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("distmine: need at least one node, got %d", n)
	}
	p, opts := params(db, opts)
	parts := core.Splitter(p.Partitioner)(db, n)
	exchanges := transport.NewChanGroup(n)

	outcomes := make([]*nodeOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], errs[i] = runNode(exchanges[i], parts[i], p, nodeHooks{obs: opts.Obs})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("distmine: node %d: %w", i, err)
		}
	}
	dones := make([]transport.NodeDone, n)
	for i, o := range outcomes {
		dones[i] = o.report(i, exchanges[i].Stats().Snapshot())
	}
	res, err := assemble(parts, p, dones)
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		res.Metrics.Merge(&o.Miner)
		res.Metrics.Merge(&o.Server)
	}
	return res, nil
}
