package main

import (
	"bytes"
	"fmt"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// replayNodes runs one cluster session's node layers in process, in the
// order a pmihp-node daemon runs them, on the partitions the coordinator
// cuts: pass-1 THT build, THT assembly from wire segments, local mining,
// polling each peer's counter, and the final merge. The exchanges are
// replaced by direct calls, so each layer's span holds only that layer's
// work. distmine.Result carries no pass or candidate counts; this is
// where the traced run gets them; the merged miner and poll-server
// counts are returned beside the layer metrics.
func replayNodes(tr *tracer, db *txdb.DB, opts mining.Options, n int) ([]itemset.Counted, mining.Metrics, map[string]metric, error) {
	const op = "replay"
	root := tr.begin(0, op, "replay")
	defer tr.end(root)

	o := opts.WithDefaults()
	globalMin := o.MinCount(db.Len())
	// The cluster workload uses the paper's equal-count chronological
	// split, the coordinator's default.
	s := tr.begin(root, op, "txdb.split")
	parts := db.SplitChronological(n)
	tr.end(s)
	partBytes := 0
	for i, p := range parts {
		s := tr.begin(root, op, "txdb.encode")
		var buf bytes.Buffer
		err := p.Encode(&buf)
		tr.end(s)
		if err != nil {
			return nil, mining.Metrics{}, nil, fmt.Errorf("encoding partition %d: %w", i, err)
		}
		partBytes += buf.Len()
	}

	// The options a node resolves from its Init message.
	nodeOpts := mining.Options{
		MinSupCount:      globalMin,
		MaxK:             o.MaxK,
		PartitionSize:    o.PartitionSize,
		THTEntries:       o.THTEntries,
		IntraNodeWorkers: o.IntraNodeWorkers,
		DenseThreshold:   o.DenseThreshold,
		Partitioner:      o.Partitioner,
	}.WithDefaults()
	workers := nodeOpts.Workers()

	locals := make([]*tht.Local, n)
	globalCounts := make([]int, db.NumItems())
	for i, p := range parts {
		s := tr.begin(root, op, "tht.build")
		var counts []int
		locals[i], counts = tht.BuildLocalShards(p, max(o.THTEntries/n, 4), workers)
		tr.end(s)
		for it, c := range counts {
			globalCounts[it] += c
		}
	}
	freq, f1, f1Counted := core.FrequentItems(globalCounts, globalMin)

	s = tr.begin(root, op, "tht.assemble")
	blobs := make([][]byte, n)
	for i, l := range locals {
		l.Retain(func(it itemset.Item) bool { return freq[it] })
		l.BuildMasks()
		blobs[i] = l.AppendWire(nil)
	}
	globals := make([]*tht.Global, n)
	for i := range globals {
		segs := make([]*tht.Local, n)
		for j, b := range blobs {
			if j == i {
				segs[j] = locals[i]
				continue
			}
			seg, err := tht.DecodeWire(b)
			if err != nil {
				tr.end(s)
				return nil, mining.Metrics{}, nil, fmt.Errorf("tht segment %d: %w", j, err)
			}
			seg.BuildMasks()
			segs[j] = seg
		}
		globals[i] = tht.NewGlobal(segs)
	}
	tr.end(s)

	partitions := core.Partition(f1, nodeOpts.PartitionSize)
	miners := make([]mining.Metrics, n)
	servers := make([]mining.Metrics, n)
	queues := make([][]itemset.Itemset, n)
	totals := make([][]int, n)
	var mineSecs []float64
	for i, p := range parts {
		miners[i] = mining.NewMetrics("replay-miner")
		servers[i] = mining.NewMetrics("replay-server")
		s := tr.begin(root, op, "core.local_mine")
		core.RunLocalMiner(p, nodeOpts, core.LocalMineConfig{
			Self:        i,
			LocalMin:    core.LocalMinCount(globalMin, p.Len(), db.Len()),
			GlobalPrune: globalMin,
			Global:      globals[i],
			FreqItems:   f1,
			Partitions:  partitions,
			Emit: func(set itemset.Itemset, count int) {
				if count < globalMin {
					miners[i].GlobalCandidates++
				}
				queues[i] = append(queues[i], set)
				totals[i] = append(totals[i], count)
			},
		}, &miners[i])
		tr.end(s)
		mineSecs = append(mineSecs, tr.seconds(s))
	}

	counters := make([]*core.PollCounter, n)
	for j, p := range parts {
		counters[j] = core.NewPollCounter(p, workers, nodeOpts.DenseThreshold)
	}
	pollSecs := make([]float64, n)
	var all []itemset.Counted
	for i := range parts {
		p := tr.begin(root, op, "poll")
		found := pollPeers(tr, p, op, globals[i], i, queues[i], totals[i], globalMin, nodeOpts.GlobalCandidateBatch, counters, servers, pollSecs)
		tr.end(p)
		all = append(all, found...)
	}

	s = tr.begin(root, op, "core.merge")
	merged := core.MergeFound(f1Counted, all)
	tr.end(s)

	counted := mining.NewMetrics("replay")
	for i := range miners {
		counted.Merge(&miners[i])
		counted.Merge(&servers[i])
	}
	var candidates float64
	for _, c := range counted.CandidatesByK {
		candidates += float64(c)
	}
	pruned, globalCands := float64(counted.PrunedByTHT), float64(counted.GlobalCandidates)
	layers := map[string]metric{
		"txdb.split_s":           {sum(tr.durations("txdb.split")), "s"},
		"txdb.encode_s":          {sum(tr.durations("txdb.encode")), "s"},
		"txdb.partition_mb":      {float64(partBytes) / 1e6, "MB"},
		"tht.build_s":            {maxOf(tr.durations("tht.build")), "s"},
		"core.local_mine_s":      {maxOf(mineSecs), "s"},
		"core.candidates":        {candidates, "count"},
		"core.pruned_tht":        {pruned, "count"},
		"core.tht_prune_ratio":   {ratio(pruned, pruned+candidates), "ratio"},
		"core.global_candidates": {globalCands, "count"},
		"core.poll_count_s":      {maxOf(pollSecs), "s"},
		"core.merge_s":           {sum(tr.durations("core.merge")), "s"},
	}
	return merged, counted, layers, nil
}

// pollPeers resolves node self's queued itemsets the way the node's
// global counting does: the cascaded THT names the peers whose segment
// can still contribute, requests go to each peer batched by itemset size
// in chunks of at most batch, and the itemsets whose exact global count
// reaches globalMin are returned. Each peer's counting time accumulates
// into pollSecs[peer].
func pollPeers(tr *tracer, parent int, op string, global *tht.Global, self int, sets []itemset.Itemset, totals []int, globalMin, batch int, counters []*core.PollCounter, servers []mining.Metrics, pollSecs []float64) []itemset.Counted {
	type peerK struct{ peer, k int }
	groups := map[peerK][]int{}
	var order []peerK
	var buf []int
	for pos, set := range sets {
		peers, _ := global.PollPeers(set, self, buf)
		buf = peers
		for _, p := range peers {
			g := peerK{p, len(set)}
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], pos)
		}
	}
	for _, g := range order {
		positions := groups[g]
		for lo := 0; lo < len(positions); lo += batch {
			chunk := positions[lo:min(lo+batch, len(positions))]
			req := make([]itemset.Itemset, len(chunk))
			for i, pos := range chunk {
				req[i] = sets[pos]
			}
			servers[g.peer].AddCandidates(g.k, len(req))
			s := tr.begin(parent, op, "core.poll_count")
			counts := counters[g.peer].CountBatch(req, &servers[g.peer])
			tr.end(s)
			pollSecs[g.peer] += tr.seconds(s)
			for i, pos := range chunk {
				totals[pos] += counts[i]
			}
		}
	}
	var found []itemset.Counted
	for i, set := range sets {
		if totals[i] >= globalMin {
			found = append(found, itemset.Counted{Set: set, Count: totals[i]})
		}
	}
	return found
}
