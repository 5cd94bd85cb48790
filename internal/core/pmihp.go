package core

import (
	"fmt"
	"sync"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// PollMode selects when PMIHP resolves global candidate itemsets.
type PollMode int

const (
	// Interleaved is the paper's normal operation: a node polls its peers as
	// soon as GlobalCandidateBatch candidates accumulate, overlapping global
	// support counting with local mining.
	Interleaved PollMode = iota
	// Deferred postpones all polling until every node has finished local
	// mining, synchronizing first — the reconfiguration the paper uses to
	// *measure* the global support counting time (Figure 8).
	Deferred
)

// PMIHPConfig configures a parallel run.
type PMIHPConfig struct {
	// Nodes is the number of simulated processing nodes (the paper uses
	// 1, 2, 4 and 8 on a logical binary n-cube).
	Nodes int

	// Net is the interconnect model; the zero value selects FastEthernet.
	Net cluster.NetParams

	// Mode selects interleaved (default) or deferred global counting.
	Mode PollMode

	// ApproxDirectCounts reproduces the paper's reporting of itemsets whose
	// local count already reaches the global minimum: they are recorded
	// immediately with the local count as a lower bound and never polled.
	// When false (the default), such itemsets are polled too so every
	// reported support is exact — required for rule confidences and for the
	// cross-miner equivalence tests.
	ApproxDirectCounts bool

	// Split selects the database-to-node assignment; nil selects the
	// paper's chronological split (txdb.SplitChronological). The A6
	// ablation passes txdb.SplitRoundRobin / txdb.SplitSkewAware here.
	Split func(db *txdb.DB, n int) []*txdb.DB

	// Tally, when non-nil, records which nodes counted each candidate
	// 2-itemset (local mining and poll service), enabling the "candidates
	// counted at more than one node" statistic of the paper's 8-week
	// experiment. Costs memory proportional to the distinct candidate
	// count; leave nil except for that experiment.
	Tally *PairTally
}

// NodeReport is the per-node outcome of a parallel run.
type NodeReport struct {
	Node     int
	Docs     int // local database size
	LocalMin int // local minimum support count

	// Metrics merges the node's mining and poll-service accounting.
	Metrics mining.Metrics

	// Seconds is the node's final simulated clock.
	Seconds float64

	// PollServeUnits is the work spent answering peers' poll requests,
	// included in Metrics.Work.
	PollServeUnits int64
}

// ParallelResult is the outcome of a PMIHP (or Count Distribution) run.
type ParallelResult struct {
	// Result holds the merged globally frequent itemsets; its metrics are
	// the node aggregates.
	Result *mining.Result

	Nodes []NodeReport

	// TotalSeconds is the simulated total execution time (max node clock).
	TotalSeconds float64

	// GlobalCountSeconds is the measured global support counting phase; it
	// is only meaningful in Deferred mode (Figure 8's methodology).
	GlobalCountSeconds float64

	// THTExchangeSeconds and FinalExchangeSeconds are the collective
	// communication times of the table exchange and the final frequent-list
	// exchange.
	THTExchangeSeconds   float64
	FinalExchangeSeconds float64

	// ExchangeSecondsByPass records the modeled collective time of each
	// per-pass count exchange, in pass order. Count Distribution fills it
	// (one all-reduce per pass); PMIHP has no per-pass collectives. The
	// multi-process runtime reports measured wall-clock per exchange phase
	// alongside (mining.Metrics.WireSeconds), so model and measurement can
	// be validated against each other.
	ExchangeSecondsByPass []float64
}

// AvgNodeSeconds returns the mean per-node simulated execution time
// (Figure 9's quantity).
func (r *ParallelResult) AvgNodeSeconds() float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range r.Nodes {
		sum += n.Seconds
	}
	return sum / float64(len(r.Nodes))
}

// AvgCandidates returns the mean number of candidate k-itemsets counted per
// node (Figures 10 and 11).
func (r *ParallelResult) AvgCandidates(k int) float64 {
	if len(r.Nodes) == 0 {
		return 0
	}
	sum := 0
	for _, n := range r.Nodes {
		sum += n.Metrics.CandidatesByK[k]
	}
	return float64(sum) / float64(len(r.Nodes))
}

// pmihpNode is the per-node state of a parallel run.
type pmihpNode struct {
	id       int
	db       *txdb.DB
	opts     mining.Options
	localMin int
	glMin    int
	cfg      PMIHPConfig
	fabric   *cluster.Fabric
	global   *tht.Global
	peers    []*pmihpNode // every node of the run, indexed by id

	miner    mining.Metrics // local-mining accounting
	lastWrk  int64          // clock-sync watermark for miner.Work
	resolver *Resolver      // global support counting of the node's itemsets

	// Poll service: mu serializes the peers' polls of this node.
	mu      sync.Mutex
	counter *PollCounter
	server  mining.Metrics // poll-service accounting
}

// MinePMIHP runs the parallel MIHP algorithm over the database split
// across cfg.Nodes simulated processing nodes — chronologically by equal
// document counts by default, or by estimated counting work when
// opts.Partitioner selects it (cfg.Split, when set, overrides both).
func MinePMIHP(db *txdb.DB, cfg PMIHPConfig, opts mining.Options) (*ParallelResult, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: PMIHP needs at least one node, got %d", cfg.Nodes)
	}
	opts = opts.WithDefaults()
	if cfg.Net == (cluster.NetParams{}) {
		cfg.Net = cluster.FastEthernet
	}
	n := cfg.Nodes
	globalMin := opts.MinCount(db.Len())
	split := cfg.Split
	if split == nil {
		split = Splitter(opts.Partitioner)
	}
	parts := split(db, n)
	if len(parts) != n {
		return nil, fmt.Errorf("core: splitter returned %d parts for %d nodes", len(parts), n)
	}
	fabric := cluster.New(n, cfg.Net)
	out := &ParallelResult{}

	// The intra-node worker pool divides across the simulated nodes, which
	// already run concurrently: oversubscribing n nodes × full pool would
	// thrash real cores without changing any simulated quantity.
	perNode := opts.Workers() / n
	if perNode < 1 {
		perNode = 1
	}
	opts.IntraNodeWorkers = perNode

	// ---- Phase 1: local pass 1 at every node (counts + local THTs). ----
	entries := NodeTHTEntries(opts.THTEntries, n)
	locals := make([]*tht.Local, n)
	nodeCounts := make([][]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local, counts := tht.BuildLocalShards(parts[i], entries, perNode)
			locals[i], nodeCounts[i] = local, counts
			items := parts[i].TotalItems()
			var w mining.Work
			w.Charge(int64(items), mining.CostScanItem+mining.CostTHTSlot)
			fabric.Clock(i).AdvanceWork(w.Units)
		}(i)
	}
	wg.Wait()

	// ---- Exchange: global item counts (all-reduce over the n-cube). ----
	fabric.AllReduce(int64(4 * db.NumItems()))
	globalCounts := make([]int, db.NumItems())
	for i := 0; i < n; i++ {
		for it, c := range nodeCounts[i] {
			globalCounts[it] += c
		}
	}
	freq, f1, f1Counted := FrequentItems(globalCounts, globalMin)

	// ---- Exchange: local THTs (all-gather), keeping frequent items. ----
	maxTHTBytes := int64(0)
	for i := 0; i < n; i++ {
		locals[i].Retain(func(it itemset.Item) bool { return freq[it] })
		locals[i].BuildMasks()
		if b := int64(locals[i].Bytes()); b > maxTHTBytes {
			maxTHTBytes = b
		}
	}
	out.THTExchangeSeconds = fabric.AllGather(maxTHTBytes)
	if r := opts.Obs; r.Enabled() {
		// Simulated runs span the modeled collective times, so the trace
		// carries the same quantities in both runtimes.
		r.RecordSpan(obs.SpanEvent{Name: "exchange:tht", Node: -1, Seconds: out.THTExchangeSeconds})
	}
	global := tht.NewGlobal(locals)

	partitions := Partition(f1, opts.PartitionSize)

	// ---- Phase 2: local mining with classification and polling. ----
	nodes := make([]*pmihpNode, n)
	for i := 0; i < n; i++ {
		nd := &pmihpNode{
			id:       i,
			db:       parts[i],
			opts:     opts,
			localMin: LocalMinCount(globalMin, parts[i].Len(), db.Len()),
			glMin:    globalMin,
			cfg:      cfg,
			fabric:   fabric,
			global:   global,
			peers:    nodes,
			miner:    mining.NewMetrics("pmihp-miner"),
			counter:  NewPollCounter(parts[i], perNode, opts.DenseThreshold),
			server:   mining.NewMetrics("pmihp-server"),
		}
		nd.resolver = NewResolver(ResolverConfig{
			Self:               i,
			GlobalMin:          globalMin,
			ApproxDirectCounts: cfg.ApproxDirectCounts,
			Global:             global,
			Metrics:            &nd.miner,
			Poll:               nd.poll,
		})
		nodes[i] = nd
	}

	var mined, polled sync.WaitGroup
	mined.Add(n)
	polled.Add(n)
	startPolling := make(chan struct{})
	if cfg.Mode == Interleaved {
		close(startPolling) // no gate
	}
	for _, nd := range nodes {
		go func(nd *pmihpNode) {
			defer polled.Done()
			nd.mine(f1, partitions)
			mined.Done()
			<-startPolling
			nd.resolver.Flush(0) // the remainder; simulated polls cannot fail
			nd.syncClock()
		}(nd)
	}
	if cfg.Mode == Deferred {
		// Synchronize the nodes, stamp the phase start, then release the
		// polling phase — the paper's measurement methodology for Figure 8.
		mined.Wait()
		t0 := fabric.Barrier()
		close(startPolling)
		polled.Wait()
		out.GlobalCountSeconds = fabric.Barrier() - t0
	} else {
		polled.Wait()
	}

	// ---- Final exchange: globally frequent itemset lists (all-gather). ----
	maxListBytes := int64(0)
	for _, nd := range nodes {
		b := int64(0)
		for _, c := range nd.resolver.Found() {
			b += int64(4*len(c.Set) + 8)
		}
		if b > maxListBytes {
			maxListBytes = b
		}
	}
	out.FinalExchangeSeconds = fabric.AllGather(maxListBytes)
	if r := opts.Obs; r.Enabled() {
		r.RecordSpan(obs.SpanEvent{Name: "exchange:final", Node: -1, Seconds: out.FinalExchangeSeconds})
	}

	// ---- Merge (shared with the multi-process runtime). ----
	var all []itemset.Counted
	for _, nd := range nodes {
		all = append(all, nd.resolver.Found()...)
	}
	res := &mining.Result{Metrics: mining.NewMetrics("pmihp")}
	res.Frequent = MergeFound(f1Counted, all)

	out.Nodes = make([]NodeReport, n)
	for i, nd := range nodes {
		rep := NodeReport{
			Node:           i,
			Docs:           parts[i].Len(),
			LocalMin:       nd.localMin,
			Seconds:        fabric.Clock(i).Now(),
			PollServeUnits: nd.server.Work.Units,
		}
		rep.Metrics = mining.NewMetrics("pmihp-node")
		rep.Metrics.Merge(&nd.miner)
		rep.Metrics.Merge(&nd.server)
		msgs, bytes := fabric.Stats(i).Snapshot()
		rep.Metrics.MessagesSent = msgs
		rep.Metrics.BytesSent = bytes
		out.Nodes[i] = rep
		res.Metrics.Merge(&rep.Metrics)
	}
	res.Metrics.Algorithm = "pmihp"
	out.Result = res
	out.TotalSeconds = fabric.MaxClock()

	// Load-balance gauges: busy is the simulated seconds of work a node
	// actually charged (mining plus poll service); idle is the rest of the
	// run it spent waiting on collectives and stragglers. The imbalance
	// ratio (max busy over mean busy, 1.0 = perfectly balanced) is the
	// quantity the work partitioner exists to minimize.
	if r := opts.Obs; r.Enabled() {
		var maxBusy, sumBusy float64
		for i := range out.Nodes {
			busy := out.Nodes[i].Metrics.Work.Seconds()
			r.SetNodeFloatGauge("busy_seconds", i, busy)
			idle := out.TotalSeconds - busy
			if idle < 0 {
				idle = 0
			}
			r.SetNodeFloatGauge("idle_seconds", i, idle)
			if busy > maxBusy {
				maxBusy = busy
			}
			sumBusy += busy
		}
		if sumBusy > 0 {
			r.SetFloatGauge("pass_imbalance_ratio", maxBusy*float64(n)/sumBusy)
		}
	}
	return out, nil
}

// mine runs the node's local MIHP passes, handing each locally frequent
// itemset to the resolver. In interleaved mode the resolver flushes after
// every counting pass once GlobalCandidateBatch itemsets are queued (the
// paper polls "when certain number of global candidate itemsets are
// accumulated").
func (nd *pmihpNode) mine(f1 []itemset.Item, partitions [][]itemset.Item) {
	lm := &localMiner{
		db:         nd.db,
		opts:       nd.opts,
		minLocal:   nd.localMin,
		minPrune:   nd.glMin,
		global:     nd.global,
		self:       nd.id,
		freqItems:  f1,
		partitions: partitions,
		metrics:    &nd.miner,
		emit:       nd.resolver.Emit,
	}
	if nd.cfg.Mode == Interleaved {
		lm.onPass = func() { nd.resolver.Flush(nd.opts.GlobalCandidateBatch) }
	}
	if nd.cfg.Tally != nil {
		lm.notePair = func(key uint64) { nd.cfg.Tally.note(nd.id, key) }
	}
	lm.run()
	nd.syncClock()
}

// syncClock advances the node clock by the miner work accumulated since the
// previous sync.
func (nd *pmihpNode) syncClock() {
	delta := nd.miner.Work.Units - nd.lastWrk
	if delta > 0 {
		nd.fabric.Clock(nd.id).AdvanceWork(delta)
		nd.lastWrk = nd.miner.Work.Units
	}
}

// poll is the node's PollFunc: one synchronous request to a peer. The
// request and the reply are charged as point-to-point messages, and the
// peer counts the sets on its own clock under its lock. Clocks count
// integer ticks, so these charges reach the same totals in any
// interleaving with the peer's own mining.
func (nd *pmihpNode) poll(g PollGroup) error {
	nd.fabric.ChargeSend(nd.id, g.Peer, int64(16+4*g.K*g.Len()))
	sets := g.Sets(0, g.Len())
	p := nd.peers[g.Peer]
	p.mu.Lock()
	before := p.server.Work.Units
	counts := p.counter.Serve(g.Peer, g.K, sets, &p.server, p.opts.Obs)
	if p.cfg.Tally != nil {
		p.cfg.Tally.noteBatch(g.Peer, g.K, sets)
	}
	nd.fabric.Clock(g.Peer).AdvanceWork(p.server.Work.Units - before)
	p.mu.Unlock()
	nd.fabric.ChargeSend(g.Peer, nd.id, int64(4*len(counts)+16))
	for i, c := range counts {
		g.Add(i, c)
	}
	return nil
}
