package main

import (
	"fmt"
	"maps"
	"math"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/distmine"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// The cluster_sparse workload is the paper's Fig-6 regime: corpus B at
// harness scale, minimum support count 2, mined by distmine.MineCluster on
// clusterNodes spawned pmihp-node daemons. Hundreds of thousands of
// itemsets are globally frequent, so THT exchange, polling and the final
// all-gather carry tens of megabytes per session beside local mining.
//
// Its reference is the Fig-6 8-node point of the figure simulator,
// core.MinePMIHP with interleaved polling: the only caller of
// internal/cluster and core/pmihp.go, whose modeled seconds and held
// bytes the traced run checks and reports per layer.
var (
	clusterCorpus = corpus.CorpusB(corpus.Harness)
	clusterOpts   = mining.Options{MinSupCount: 2, MaxK: 3}
	simConfig     = core.PMIHPConfig{Nodes: 8, Mode: core.Interleaved}
)

const (
	clusterNodes = 2
	// setupRepeats is how many times a run sets up, so setup_s is a
	// median; the last set-up's daemons serve the measured sessions.
	setupRepeats = 9
	// simTol is the relative difference in modeled seconds a simulator
	// run may show against the reference, the tolerance the repository's
	// bench gate (benchharness.simTol) uses: node clocks are float
	// accumulators fed in the simulated fabric's service order, so on a
	// multi-core host repeated runs differ in the last bits. The
	// difference is reported as sim.seconds_drift, so it stays visible.
	simTol = 1e-9
)

func drift(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

func runCluster(e *env) (*outcome, error) {
	out := newOutcome()

	// The reference is computed once per seed, before set-up and outside
	// setup_s: the simulator on the same database. Its frequent list does
	// not depend on the node count; eight simulated nodes mine corpus B
	// in about two thirds of the time two take.
	docs, err := genDocs(clusterCorpus, e.seed)
	if err != nil {
		return nil, err
	}
	refDB, _ := text.ToDB(docs, nil)
	tr := e.trace
	sp := tr.begin(0, "reference", "core.MinePMIHP")
	ref, err := core.MinePMIHP(refDB, simConfig, clusterOpts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	// Keep only a summary: the coordinator runs in this process, so a
	// result of hundreds of thousands of itemsets left on the heap would
	// add to its garbage collector's work in every session.
	refSim := summarize(ref)
	want := refSim.frequent
	ref, refDB = nil, nil
	out.phase("references")

	var setups, todbs []float64
	var db *txdb.DB
	var nodes []*daemon
	for i := 0; i < setupRepeats; i++ {
		for _, d := range nodes {
			e.procs.stop(d)
		}
		settle()
		t0 := time.Now()
		docs, err := genDocs(clusterCorpus, e.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		db, _ = text.ToDB(docs, nil)
		todbs = append(todbs, time.Since(t1).Seconds())
		nodes = nodes[:0]
		for n := 0; n < clusterNodes; n++ {
			d, err := e.procs.start(e.binDir+"/pmihp-node", []string{"-listen", "127.0.0.1:0"}, "pmihp-node listening on ")
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, d)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.phase("setup")
	addrs := make([]string, len(nodes))
	for i, d := range nodes {
		addrs[i] = d.addr
	}

	// One untimed session first, checked like the rest: the daemons are
	// fresh processes, and their first session pays for growing the heaps.
	cfg := distmine.ClusterConfig{Addrs: addrs}
	out.attempted++
	if res, err := distmine.MineCluster(db, cfg, clusterOpts); err != nil {
		out.fail("warm-up session: %v", err)
		return out, nil
	} else if digestOf(res.Frequent) != want {
		out.fail("warm-up session: merged frequent list differs from the core.MinePMIHP reference")
	}

	out.phase("warm-up")
	// A closed loop of one session at a time.
	var all, wire []float64
	var phases [4][]float64
	var imbalance, messages, retries []float64
	start := time.Now()
	for len(all) == 0 || time.Since(start) < e.seconds {
		i := len(all)
		op := fmt.Sprintf("session-%d", i)
		root := tr.begin(0, op, "session")
		call := tr.begin(root, op, "distmine.MineCluster")
		t0 := time.Now()
		res, err := distmine.MineCluster(db, cfg, clusterOpts)
		secs := time.Since(t0).Seconds()
		tr.end(call)
		out.attempted++
		if err != nil {
			tr.end(root)
			out.fail("session %d: %v", i, err)
			break // the daemons may be gone; later sessions would only repeat the error
		}
		check := tr.begin(root, op, "check")
		if digestOf(res.Frequent) != want {
			out.fail("session %d: merged frequent list differs from the core.MinePMIHP reference", i)
		}
		tr.end(check)
		tr.end(root)

		all = append(all, secs)
		wire = append(wire, float64(res.Metrics.WireBytesSent)/1e6)
		for p := range phases {
			worst := 0.0
			for _, n := range res.Nodes {
				worst = max(worst, n.PhaseSeconds[p])
			}
			phases[p] = append(phases[p], worst)
		}
		imbalance = append(imbalance, res.Imbalance)
		messages = append(messages, float64(res.Metrics.WireMessagesSent))
		retries = append(retries, float64(res.Metrics.WireRetries))
	}

	out.phase("measured")
	// A daemon that died mid-run has no peak to read; that is a failure
	// of the run, counted like a failed session.
	var rss int64
	var rssErr error
	for _, d := range nodes {
		b, err := peakRSS(d.cmd.Process.Pid)
		if err != nil && rssErr == nil {
			rssErr = err
		}
		rss += b
	}
	for _, d := range nodes {
		e.procs.stop(d)
	}
	out.attempted++
	if rssErr != nil {
		out.fail("reading the daemons' peak RSS: %v", rssErr)
	} else {
		out.e2e["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
	}
	if len(all) == 0 {
		return out, nil
	}

	out.ops = all
	out.e2e["mine_s"] = metric{median(all), "s"}
	out.e2e["fresh_s.p50"] = metric{median(all), "s"}
	out.e2e["fresh_s.p75"] = metric{quantile(all, 0.75), "s"}
	out.e2e["request_ms.p50"] = metric{median(all) * 1e3, "ms"}
	out.e2e["wire_mb"] = metric{median(wire), "MB"}
	if !e.trace.on {
		return out, nil
	}

	// The traced run replays the node layers in process on the same
	// partitions. Any correct miner reproduces the reference's frequent
	// list, so the replay must also count exactly the candidates, THT
	// prunes and global candidates that the node protocol itself counts
	// (distmine.MineInProcess runs it over channels and returns them), or
	// its timings would not describe the nodes' real work.
	defer out.phase("traced checks")
	merged, counted, layers, err := replayNodes(e.trace, db, clusterOpts, clusterNodes)
	out.attempted++
	if err != nil {
		out.fail("node-layer replay: %v", err)
		return out, nil
	}
	if digestOf(merged) != want {
		out.fail("node-layer replay: merged frequent list differs from the reference")
	}
	sim, err := simLayers(e.trace, db, refSim)
	out.attempted++
	if err != nil {
		out.fail("simulator: %v", err)
	}
	maps.Copy(layers, sim)
	out.attempted++
	if ip, err := distmine.MineInProcess(db, clusterNodes, clusterOpts); err != nil {
		out.fail("in-process node protocol: %v", err)
	} else if msg := sameCounts(counted, ip.Metrics); msg != "" {
		out.fail("node-layer replay counted other work than the node protocol: %s", msg)
	}
	layers["text.todb_s"] = metric{median(todbs), "s"}
	layers["distmine.itemcounts_s"] = metric{median(phases[0]), "s"}
	layers["distmine.tht_exchange_s"] = metric{median(phases[1]), "s"}
	layers["distmine.poll_s"] = metric{median(phases[2]), "s"}
	layers["distmine.final_exchange_s"] = metric{median(phases[3]), "s"}
	layers["distmine.imbalance"] = metric{median(imbalance), "ratio"}
	layers["transport.messages"] = metric{median(messages), "count"}
	layers["transport.retries"] = metric{median(retries), "count"}
	layers["trace.overhead_s"] = metric{e.trace.overhead(len(all) + 3), "s"} // the sessions, the replay and two simulator runs
	layers["trace.spans"] = metric{float64(e.trace.count()), "count"}
	out.layers = layers
	return out, nil
}

// simRun is what the traced run checks and reports of one simulator run.
type simRun struct {
	frequent                   digest
	seconds, thtEx, finalEx    float64
	held, pollRounds, globalCs int64
}

func summarize(r *core.ParallelResult) simRun {
	s := simRun{
		frequent:   digestOf(r.Result.Frequent),
		seconds:    r.TotalSeconds,
		thtEx:      r.THTExchangeSeconds,
		finalEx:    r.FinalExchangeSeconds,
		held:       int64(r.Result.Metrics.PeakHeldBytes),
		pollRounds: int64(r.Result.Metrics.PollRounds),
	}
	for _, n := range r.Nodes {
		s.globalCs += int64(n.Metrics.GlobalCandidates)
	}
	return s
}

// simLayers runs the simulator once more on the same database and checks
// it against the reference: the same frequent list and held bytes
// exactly, and the same modeled seconds within simTol. It returns the
// simulator's per-layer metrics, the modeled ones from the reference.
func simLayers(tr *tracer, db *txdb.DB, ref simRun) (map[string]metric, error) {
	sp := tr.begin(0, "simulator", "core.MinePMIHP")
	res, err := core.MinePMIHP(db, simConfig, clusterOpts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	got := summarize(res)
	switch {
	case got.frequent != ref.frequent:
		return nil, fmt.Errorf("frequent list differs from the reference")
	case drift(got.seconds, ref.seconds) > simTol:
		return nil, fmt.Errorf("sim_seconds %v, reference %v", got.seconds, ref.seconds)
	case got.held != ref.held:
		return nil, fmt.Errorf("bytes_held %d, reference %d", got.held, ref.held)
	}
	return map[string]metric{
		"core.mine_pmihp_s":     {median(tr.durations("core.MinePMIHP")), "s"},
		"sim_seconds":           {ref.seconds, "modeled_s"},
		"bytes_held":            {float64(ref.held), "B"},
		"sim.poll_rounds":       {float64(ref.pollRounds), "count"},
		"sim.global_candidates": {float64(ref.globalCs), "count"},
		"sim.tht_exchange_s":    {ref.thtEx, "modeled_s"},
		"sim.final_exchange_s":  {ref.finalEx, "modeled_s"},
		"sim.seconds_drift":     {drift(got.seconds, ref.seconds), "ratio"},
	}, nil
}

// sameCounts compares the counts the node-layer replay took from its
// miners and poll servers with the node protocol's, and names the first
// that differs ("" when all agree).
func sameCounts(replay, nodes mining.Metrics) string {
	switch {
	case !maps.Equal(replay.CandidatesByK, nodes.CandidatesByK):
		return fmt.Sprintf("candidates by size %v, node protocol %v", replay.CandidatesByK, nodes.CandidatesByK)
	case replay.PrunedByTHT != nodes.PrunedByTHT:
		return fmt.Sprintf("THT prunes %d, node protocol %d", replay.PrunedByTHT, nodes.PrunedByTHT)
	case replay.GlobalCandidates != nodes.GlobalCandidates:
		return fmt.Sprintf("global candidates %d, node protocol %d", replay.GlobalCandidates, nodes.GlobalCandidates)
	}
	return ""
}
