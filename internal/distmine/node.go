// Package distmine is the multi-process cluster runtime: it drives the
// PMIHP node protocol of internal/core over a transport.Exchange, so the
// same algorithm that runs in-process with simulated clocks also runs
// across OS processes over real TCP connections.
//
// The protocol a node executes is the phase sequence of core.MinePMIHP —
// pass-1 THT build, item-count exchange, THT exchange, local mining with
// candidate polling — with the in-process fabric replaced by the
// exchange. The paper's final all-gather of the frequent lists becomes a
// barrier: every node reports its globally frequent itemsets once, and
// the coordinator (or MineInProcess) merges them; the simulator still
// models the paper's exchange. Global counting runs the simulator's
// resolver (core.Resolver) with the exchange's polls behind it, deferred:
// every locally frequent itemset is queued during mining and resolved by
// one flush afterwards. In exact mode that ordering is invisible in the
// output — polls have no feedback into local mining, exact counts sum
// identically in any order, and the merge is a deterministic sort — which
// is why the distributed runtime produces frequent itemsets byte-identical
// to the in-process miner.
package distmine

import (
	"fmt"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/tht"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// NodeParams carries the session parameters resolved at the coordinator
// (the body of the Init message, minus the partition itself).
type NodeParams struct {
	TotalDocs int // |D| across the cluster
	NumItems  int
	GlobalMin int // global minimum support count

	THTEntries    int // global THT slots; each node builds entries/N (min 4)
	PartitionSize int
	MaxK          int
	Workers       int // intra-node workers (0 = GOMAXPROCS)
	// DenseThreshold selects the poll counter's hybrid posting layout
	// (see mining.Options.DenseThreshold). Resolved at the coordinator so
	// every node prices its inverted file by the same density rule; a
	// node-local flag may still override it for heterogeneous hardware
	// (the layout never changes results or simulated charges).
	DenseThreshold float64
	// Partitioner records how the coordinator cut the session's
	// partitions. The partition a node receives is already cut, so the
	// field only labels logs and traces — it never re-splits anything
	// node-side.
	Partitioner mining.Partitioner
}

// nodeHooks wires a node run into the fault-tolerance machinery.
type nodeHooks struct {
	// resume, when non-nil, is the checkpoint of a failed session: the
	// run skips the collectives the checkpoint covers and rebuilds their
	// results from it instead (the same state, by core's resume seams, so
	// the mining that follows is byte-identical to an uninterrupted run).
	resume *transport.Checkpoint
	// progress, when non-nil (node 0 of a coordinator-driven session),
	// receives the checkpointable state after each collective completes.
	progress func(stage uint8, counts []uint32, thtSegments [][]byte)
	// obs, when non-nil, receives the node's pass events, collective
	// spans, and poll batches.
	obs *obs.Recorder
	// onPass, when non-nil, runs after every local counting pass — the
	// daemon's pass counter behind the heartbeat progress payload.
	onPass func()
}

// nodeOutcome is what one node's protocol run produces.
type nodeOutcome struct {
	// GlobalCounts is the all-reduced per-item count vector (identical at
	// every node; the coordinator reads node 0's).
	GlobalCounts []int
	// Found is this node's globally frequent itemsets (k >= 2), with
	// exact global counts.
	Found []itemset.Counted
	// PhaseSeconds is measured wall clock: [0] item-count exchange,
	// [1] THT exchange, [2] candidate polling, [3] final barrier.
	PhaseSeconds [4]float64
	// Miner and Server are the node's mining and poll-service accounting.
	Miner, Server mining.Metrics
}

// runNode executes the PMIHP node protocol over the exchange. The
// caller owns the exchange (and its listener, for TCP) and closes it
// after the coordinator's shutdown. With h.resume set, the run skips
// the collectives the checkpoint covers and continues from their
// recorded results.
func runNode(x transport.Exchange, db *txdb.DB, p NodeParams, h nodeHooks) (*nodeOutcome, error) {
	n, self := x.Nodes(), x.NodeID()
	stage := transport.StageNone
	if h.resume != nil {
		if int(h.resume.Nodes) != n {
			return nil, fmt.Errorf("resume checkpoint for %d nodes, this session has %d", h.resume.Nodes, n)
		}
		stage = h.resume.Stage
	}
	out := &nodeOutcome{
		Miner:  mining.NewMetrics("distmine-miner"),
		Server: mining.NewMetrics("distmine-server"),
	}
	opts := mining.Options{
		MinSupCount:      p.GlobalMin, // resolved at the coordinator
		MaxK:             p.MaxK,
		PartitionSize:    p.PartitionSize,
		THTEntries:       p.THTEntries,
		IntraNodeWorkers: p.Workers,
		DenseThreshold:   p.DenseThreshold,
		Partitioner:      p.Partitioner,
		Obs:              h.obs,
	}.WithDefaults()
	workers := opts.Workers()

	// Observability spans reuse the exact PhaseSeconds measurements (one
	// clock read pair per collective, same as before), so trace replays
	// reconcile with Metrics.WireSeconds instead of drifting by an
	// independent clock. Wire bytes attribute by the node's own traffic
	// across the collective: peers' polls answered meanwhile (they
	// overlap the final barrier) are the poll service's, not the span's.
	rec := h.obs
	wireMark := func() int64 {
		if rec.Enabled() {
			return x.Stats().OwnBytes()
		}
		return 0
	}
	span := func(name string, seconds float64, before int64, err error) {
		if !rec.Enabled() {
			return
		}
		ev := obs.SpanEvent{
			Name:    name,
			Node:    self,
			Seconds: seconds,
			Bytes:   x.Stats().OwnBytes() - before,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		rec.RecordSpan(ev)
	}

	// ---- Pass 1: local THT build and item counts. A resume beyond the
	// THT stage needs neither — every segment comes from the checkpoint.
	var local *tht.Local
	var counts []int
	if stage < transport.StageTHT {
		local, counts = tht.BuildLocalShards(db, core.NodeTHTEntries(p.THTEntries, n), workers)
	}

	// ---- Exchange: global item counts. The paper's all-reduce is
	// realized as gather + local sum, which keeps the cascade lossless
	// and, because integer addition commutes, yields the same vector at
	// every node regardless of arrival order. A resume restores the
	// vector from the checkpoint instead — it is the exact sum the
	// original collective produced.
	var globalCounts []int
	if stage < transport.StageItemCounts {
		countBlob := make([]uint32, p.NumItems)
		for it, c := range counts {
			countBlob[it] = uint32(c)
		}
		before := wireMark()
		t0 := time.Now()
		blobs, err := x.AllGather(transport.PhaseItemCounts, transport.AppendUint32s(nil, countBlob))
		out.PhaseSeconds[0] = time.Since(t0).Seconds()
		span("exchange:item-counts", out.PhaseSeconds[0], before, err)
		if err != nil {
			return nil, fmt.Errorf("item-count exchange: %w", err)
		}
		globalCounts = make([]int, p.NumItems)
		for i, b := range blobs {
			v, err := transport.DecodeUint32s(b)
			if err != nil {
				return nil, fmt.Errorf("item counts from node %d: %w", i, err)
			}
			if len(v) != p.NumItems {
				return nil, fmt.Errorf("item counts from node %d: %d items, want %d", i, len(v), p.NumItems)
			}
			for it, c := range v {
				globalCounts[it] += int(c)
			}
		}
		if h.progress != nil {
			h.progress(transport.StageItemCounts, u32Counts(globalCounts), nil)
		}
	} else {
		var err error
		globalCounts, err = core.ResumeCounts(h.resume.GlobalCounts, p.NumItems)
		if err != nil {
			return nil, fmt.Errorf("resuming item counts: %w", err)
		}
	}
	out.GlobalCounts = globalCounts
	freq, f1, _ := core.FrequentItems(globalCounts, p.GlobalMin)

	// ---- Poll service. Installed before the THT exchange: a peer can
	// only poll after completing that collective, which transitively
	// guarantees this handler exists before the first request arrives.
	// The exchange serializes handler calls. ----
	pc := core.NewPollCounter(db, workers, opts.DenseThreshold)
	x.SetPollHandler(func(k int, sets []itemset.Itemset) []int32 {
		counts := pc.Serve(self, k, sets, &out.Server, rec)
		replies := make([]int32, len(sets))
		for i, c := range counts {
			replies[i] = int32(c)
		}
		return replies
	})

	// ---- Exchange: local THTs (frequent rows only), cascade assembly.
	// A resume past this stage decodes every segment (its own included)
	// from the checkpointed wire blobs — the cascade bounds are identical
	// to the live segments' (pinned by core's resume fidelity test) — and
	// replaces the skipped collective with a cheap barrier, because
	// exiting a collective is what licenses peers to start polling.
	var global *tht.Global
	if stage < transport.StageTHT {
		local.Retain(func(it itemset.Item) bool { return freq[it] })
		local.BuildMasks()
		before := wireMark()
		t1 := time.Now()
		blobs, err := x.AllGather(transport.PhaseTHT, local.AppendWire(nil))
		out.PhaseSeconds[1] = time.Since(t1).Seconds()
		span("exchange:tht", out.PhaseSeconds[1], before, err)
		if err != nil {
			return nil, fmt.Errorf("tht exchange: %w", err)
		}
		segments := make([]*tht.Local, n)
		for i, b := range blobs {
			if i == self {
				segments[i] = local
				continue
			}
			seg, err := tht.DecodeWire(b)
			if err != nil {
				return nil, fmt.Errorf("tht segment from node %d: %w", i, err)
			}
			seg.BuildMasks()
			segments[i] = seg
		}
		global = tht.NewGlobal(segments)
		if h.progress != nil {
			h.progress(transport.StageTHT, u32Counts(globalCounts), blobs)
		}
	} else {
		var err error
		global, err = core.SegmentsFromWire(h.resume.THTSegments)
		if err != nil {
			return nil, fmt.Errorf("resuming tht segments: %w", err)
		}
		before := wireMark()
		t1 := time.Now()
		// The one-byte payload matters: the all-gather treats nil blobs as
		// missing contributions.
		_, err = x.AllGather(transport.PhaseResume, []byte{1})
		out.PhaseSeconds[1] = time.Since(t1).Seconds()
		span("resume:barrier", out.PhaseSeconds[1], before, err)
		if err != nil {
			return nil, fmt.Errorf("resume barrier: %w", err)
		}
	}
	if rec.Enabled() {
		rec.SetNodeGauge("tht_cascade_bytes", self, global.MemBytes())
	}

	// ---- Local mining, queueing every locally frequent itemset, then
	// global support counting by peer polling. ----
	res := core.NewResolver(core.ResolverConfig{
		Self:      self,
		GlobalMin: p.GlobalMin,
		Global:    global,
		Metrics:   &out.Miner,
		Poll:      chunkedPoll(x.Poll, opts.GlobalCandidateBatch, &out.Miner),
	})
	core.RunLocalMiner(db, opts, core.LocalMineConfig{
		Self:        self,
		LocalMin:    core.LocalMinCount(p.GlobalMin, db.Len(), p.TotalDocs),
		GlobalPrune: p.GlobalMin,
		Global:      global,
		FreqItems:   f1,
		Partitions:  core.Partition(f1, opts.PartitionSize),
		Emit:        res.Emit,
		OnPass:      h.onPass,
	}, &out.Miner)
	pollMark := wireMark()
	t2 := time.Now()
	err := res.Flush(0)
	out.PhaseSeconds[2] = time.Since(t2).Seconds()
	span("poll:resolve", out.PhaseSeconds[2], pollMark, err)
	if err != nil {
		return nil, err
	}
	out.Found = res.Found()

	// ---- Final collective: a barrier. Exiting it proves every peer has
	// finished polling, so the poll service can be torn down safely. The
	// frequent lists travel once, to whoever assembles the result (the
	// coordinator, or MineInProcess), instead of to every node. ----
	finalMark := wireMark()
	t3 := time.Now()
	_, err = x.AllGather(transport.PhaseFinal, []byte{1})
	out.PhaseSeconds[3] = time.Since(t3).Seconds()
	span("exchange:final", out.PhaseSeconds[3], finalMark, err)
	if err != nil {
		return nil, fmt.Errorf("final barrier: %w", err)
	}
	if rec.Enabled() {
		rec.SetNodeGauge("peak_held_bytes", self, out.Miner.PeakHeldBytes+out.Server.PeakHeldBytes)
	}
	return out, nil
}

// report is the node's terminal report — what a daemon sends its
// coordinator, and what MineInProcess assembles from. Only node 0
// carries the global item counts.
func (o *nodeOutcome) report(node int, stats transport.WireStatsSnapshot) transport.NodeDone {
	done := transport.NodeDone{
		Node:         int32(node),
		Found:        o.Found,
		Stats:        stats,
		PhaseSeconds: o.PhaseSeconds,
		BusySeconds:  o.Miner.Work.Seconds() + o.Server.Work.Seconds(),
	}
	if node == 0 {
		done.GlobalCounts = u32Counts(o.GlobalCounts)
	}
	return done
}

// u32Counts converts the summed global item counts into their wire
// (and checkpoint) form.
func u32Counts(globalCounts []int) []uint32 {
	v := make([]uint32, len(globalCounts))
	for it, c := range globalCounts {
		v[it] = uint32(c)
	}
	return v
}

// chunkedPoll is the runtime's core.PollFunc over poll (the exchange's
// Poll): it sends a group in chunks of at most batch sets, which bounds
// frame sizes and the request memory, and counts one message per chunk.
// The simulator never chunks, so its message counts stay the model's.
func chunkedPoll(poll func(peer, k int, sets []itemset.Itemset) ([]int32, error), batch int, m *mining.Metrics) core.PollFunc {
	return func(g core.PollGroup) error {
		for lo := 0; lo < g.Len(); lo += batch {
			m.MessagesSent++
			counts, err := poll(g.Peer, g.K, g.Sets(lo, min(lo+batch, g.Len())))
			if err != nil {
				return fmt.Errorf("global counting: %w", err)
			}
			for i, c := range counts {
				g.Add(lo+i, int(c))
			}
		}
		return nil
	}
}
