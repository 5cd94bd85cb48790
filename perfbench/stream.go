package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/serve"
	"pmihp/internal/streammine"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// The stream_serve workload replays corpus C one day per step through
// streammine.Miner.Ingest with a 3-day window and publishes each step's
// rules into a spawned pmihp-serve, while an open-loop generator sends
// Zipf-distributed /expand queries at queryRate.
const (
	streamWindow  = 3
	streamMinConf = 0.5
	// queryRate is about 2% of the rate pmihp-serve sustains. On a
	// 2-vCPU x86 host serving this workload's largest generation (116,511
	// rules), pmihp-bench -serve-load on 2 closed-loop connections
	// measured 15,700 queries/s idle, and 9,500-11,300/s beside an
	// Ingest-and-swap loop replaying the same stream. Queries therefore
	// queue behind swaps and ingest, not behind each other.
	queryRate  = 200 // per second
	queryLimit = 10
	// queryWords is the query universe: the corpus's most frequent
	// words by document frequency, hottest first, with Zipf s = 1.2 as
	// in pmihp-bench -serve-load. That driver takes the live
	// generation's heads from /admin/heads instead; here the universe is
	// fixed before the run, so the query sequence depends on the seed
	// alone while the heads change every step. A word that heads no rule
	// in the live generation gets an empty answer, as in search.
	queryWords = 1000
	// samplesPerGen answers per generation are checked against an
	// in-process index over the same rule set.
	samplesPerGen = 3
)

var streamOpts = mining.Options{MinSupCount: 2, MaxK: 3}

// stepRef is the from-scratch reference of one stream step. The frequent
// list is kept flat (pointer-free) so that holding forty of them does not
// add to the garbage collector's work in the process under test.
type stepRef struct {
	want      digest
	items     []itemset.Item
	sizes     []uint8
	counts    []int32
	windowLen int
}

func newStepRef(freq []itemset.Counted, windowLen int) stepRef {
	r := stepRef{want: digestOf(freq), windowLen: windowLen}
	for _, c := range freq {
		r.items = append(r.items, c.Set...)
		r.sizes = append(r.sizes, uint8(len(c.Set)))
		r.counts = append(r.counts, int32(c.Count))
	}
	return r
}

func (r stepRef) frequent() []itemset.Counted {
	out := make([]itemset.Counted, len(r.sizes))
	items := append([]itemset.Item(nil), r.items...)
	for i, n := range r.sizes {
		out[i] = itemset.Counted{Set: items[:n:n], Count: int(r.counts[i])}
		items = items[n:]
	}
	return out
}

func runStream(e *env) (*outcome, error) {
	out := newOutcome()
	scfg := streammine.Config{WindowDays: streamWindow, Opts: streamOpts}

	// Inputs and references, outside setup_s.
	full, vocab, _, err := streamDB(e.seed)
	if err != nil {
		return nil, err
	}
	batches := dayBatches(full)
	refs, err := streamRefs(batches, vocab.Size(), scfg)
	if err != nil {
		return nil, err
	}
	// The daemon starts on the first window's rules, so queries sent
	// before the first swap have a generation to answer them.
	bootstrap := filepath.Join(e.workDir, "bootstrap-rules.json")
	if err := writeRules(bootstrap, refRules(refs[0], vocab)); err != nil {
		return nil, err
	}
	queries := querySequence(full, vocab, e.seed)
	out.phase("references")

	var setups, todbs []float64
	var srv *daemon
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			e.procs.stop(srv)
		}
		settle()
		t0 := time.Now()
		_, _, todb, err := streamDB(e.seed)
		if err != nil {
			return nil, err
		}
		todbs = append(todbs, todb)
		srv, err = e.procs.start(e.binDir+"/pmihp-serve", []string{"-rules", bootstrap, "-addr", "127.0.0.1:0"}, "serving on http://")
		if err != nil {
			return nil, err
		}
		if err := waitHealthy("http://" + srv.addr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = metric{median(setups), "s"}
	out.phase("setup")
	base := "http://" + srv.addr

	swapBytes := &countingTransport{base: http.DefaultTransport}
	publish := streammine.NewSwapPublisher(&http.Client{Transport: swapBytes, Timeout: time.Minute}, base)

	genStep := map[int64]int{1: 0} // generation id -> step whose rules it serves
	var ingest, fresh, wire, ruleCounts []float64
	var newTx, scannedTx, steps int
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	lp, err := startLoad(e.procs, self, base, queries)
	if err != nil {
		return nil, err
	}
	// Days arrive on a schedule: the measured time is cut into one slot
	// per day, and a day's batch is handed to Ingest at the start of its
	// slot, or as soon as the previous step is done if that is later. So
	// a run lasts --seconds whatever the host's speed, and the queries
	// see ingest and swaps for as long as those take.
	miner, err := streammine.New(vocab.Size(), scfg)
	if err != nil {
		return nil, err
	}
	slot := e.seconds / time.Duration(len(batches))
	start := time.Now()
	gen := int64(1)
	tr := e.trace
	for s, batch := range batches {
		time.Sleep(time.Until(start.Add(time.Duration(s) * slot)))
		op := fmt.Sprintf("step-%d", s+1)
		out.attempted++
		steps++
		root := tr.begin(0, op, "step")
		t0 := time.Now()
		sp := tr.begin(root, op, "streammine.Ingest")
		err := miner.Ingest(batch)
		tr.end(sp)
		tIngest := time.Since(t0).Seconds()
		if err != nil {
			tr.end(root)
			out.fail("step %d: ingest: %v", s+1, err)
			break // a rejected batch leaves the window behind every later reference
		}
		sp = tr.begin(root, op, "rules.generate")
		ws := rules.ToWordRules(rules.Generate(miner.Frequent(), miner.WindowDB().Len(), streamMinConf), vocab.Word)
		tr.end(sp)
		sent := swapBytes.bytes.Load()
		sp = tr.begin(root, op, "serve.swap")
		if len(ws) > 0 {
			err = publish(s+1, ws)
		}
		tr.end(sp)
		tFresh := time.Since(t0).Seconds()
		tr.end(root)
		if err != nil {
			out.fail("step %d: %v", s+1, err)
			continue
		}
		st := miner.LastStats()
		newTx += st.NewTx
		scannedTx += st.ScannedTx
		if digestOf(miner.Frequent()) != refs[s].want {
			out.fail("step %d: frequent list differs from streammine.MineWindowFromScratch", s+1)
		}
		ingest = append(ingest, tIngest)
		if len(ws) == 0 {
			// A quiet window is not published; no generation carries it.
			continue
		}
		gen++
		if got, err := liveGeneration(base); err != nil || got != gen {
			out.fail("step %d: live generation %d (%v), want %d", s+1, got, err, gen)
		}
		genStep[gen] = s
		fresh = append(fresh, tFresh)
		wire = append(wire, float64(swapBytes.bytes.Load()-sent)/1e6)
		ruleCounts = append(ruleCounts, float64(len(ws)))
	}
	// The query load runs for the whole measured time, past the last
	// day's step.
	time.Sleep(time.Until(start.Add(e.seconds)))
	out.phase("measured")
	// From here on the operations are over; a daemon or generator that
	// failed still leaves a result, with the failure counted.
	ld, err := lp.finish(e.procs)
	if err != nil {
		out.attempted++
		out.fail("query load: %v", err)
		ld = &loadResult{}
	}
	out.attempted += len(ld.Lat) + ld.Failed
	out.failures += ld.Failed
	out.notes = append(out.notes, ld.Notes...)

	out.attempted += 3 // the three reads below
	hitRatio, err := cacheHitRatio(base)
	if err != nil {
		out.fail("reading /metrics: %v", err)
	}
	floor, err := httpFloor(base)
	if err != nil {
		out.fail("timing /healthz: %v", err)
	}
	if rss, err := peakRSS(srv.cmd.Process.Pid); err != nil {
		out.fail("reading pmihp-serve's peak RSS: %v", err)
	} else {
		out.e2e["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
	}
	e.procs.stop(srv)
	if len(fresh) == 0 {
		out.fail("no step published a rule set")
		return out, nil
	}

	// Check the sampled answers of every generation against an in-process
	// index over the same rule set, and time that index.
	var buildSecs, indexMB, expandUS []float64
	for g, s := range genStep {
		ws := refRules(refs[s], vocab)
		t0 := time.Now()
		ix, err := serve.BuildIndex(ws)
		if err != nil {
			out.fail("generation %d: in-process index: %v", g, err)
			continue
		}
		buildSecs = append(buildSecs, time.Since(t0).Seconds())
		indexMB = append(indexMB, float64(ix.MemBytes())/1e6)
		if err := checkGeneration(out, ix, g, ld, &expandUS); err != nil {
			return nil, err
		}
	}

	out.phase("checks")
	out.ops = fresh
	out.e2e["mine_s"] = metric{median(ingest), "s"}
	out.e2e["fresh_s.p50"] = metric{median(fresh), "s"}
	out.e2e["fresh_s.p75"] = metric{quantile(fresh, 0.75), "s"}
	out.e2e["wire_mb"] = metric{median(wire), "MB"}
	if len(ld.Lat) > 0 {
		out.e2e["request_ms.p50"] = metric{median(ld.Lat), "ms"}
	}
	if !e.trace.on || out.failures > 0 {
		return out, nil
	}
	out.layers = map[string]metric{
		"text.todb_s":           {median(todbs), "s"},
		"streammine.ingest_s":   {median(e.trace.durations("streammine.Ingest")), "s"},
		"streammine.new_tx":     {float64(newTx), "count"},
		"streammine.scanned_tx": {float64(scannedTx), "count"},
		"streammine.scan_ratio": {ratio(float64(scannedTx), float64(newTx)), "ratio"},
		"rules.generate_s":      {median(e.trace.durations("rules.generate")), "s"},
		"rules.count":           {median(ruleCounts), "count"},
		"serve.swap_s":          {median(e.trace.durations("serve.swap")), "s"},
		"serve.index_build_s":   {median(buildSecs), "s"},
		"serve.index_mb":        {median(indexMB), "MB"},
		"serve.expand_index_us": {median(expandUS), "us"},
		"serve.cache_hit_ratio": {hitRatio, "ratio"},
		"serve.http_floor_us":   {floor, "us"},
		"serve.expand_ms.p99":   {quantile(ld.Lat, 0.99), "ms"},
		"load.late_ms.p99":      {quantile(ld.Late, 0.99), "ms"},
		"trace.overhead_s":      {e.trace.overhead(steps), "s"},
		"trace.spans":           {float64(e.trace.count()), "count"},
	}
	return out, nil
}

// checkGeneration compares the answers sampled from generation g with
// the in-process index over the same rule set, and times that index on
// the queries g served.
func checkGeneration(out *outcome, ix *serve.Index, g int64, ld *loadResult, expandUS *[]float64) error {
	for _, smp := range ld.Samples[g] {
		want, err := json.Marshal(ix.Expand(queryLimit, smp.Word))
		if err != nil {
			return err
		}
		if string(want) != string(smp.Expansions) {
			out.fail("generation %d: /expand?q=%s differs from serve.BuildIndex(rules).Expand", g, smp.Word)
		}
	}
	for _, w := range ld.ServedBy[g] {
		t0 := time.Now()
		if _, err := json.Marshal(ix.Expand(queryLimit, w)); err != nil {
			return err
		}
		*expandUS = append(*expandUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return nil
}

// streamDB generates corpus C for the seed and converts it day-ordered,
// with the vocabulary built over the whole corpus as the stream
// pipeline does, so item ids stay in lexical word order. It also returns
// the seconds text.ToDB took.
func streamDB(seed int64) (*txdb.DB, *text.Vocabulary, float64, error) {
	docs, err := genDocs(corpus.CorpusC(corpus.Harness), seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sort.SliceStable(docs, func(i, j int) bool { return docs[i].Day < docs[j].Day })
	t0 := time.Now()
	db, vocab := text.ToDB(docs, nil)
	return db, vocab, time.Since(t0).Seconds(), nil
}

// dayBatches cuts a day-ordered database into one batch per day.
func dayBatches(db *txdb.DB) [][]txdb.Transaction {
	var out [][]txdb.Transaction
	for lo := 0; lo < db.Len(); {
		hi := lo
		for hi < db.Len() && db.DayOf(hi) == db.DayOf(lo) {
			hi++
		}
		batch := make([]txdb.Transaction, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, db.Tx(i))
		}
		out = append(out, batch)
		lo = hi
	}
	return out
}

// streamRefs mines every step's window from scratch, two windows at a
// time (the host has two cores and nothing else runs yet).
func streamRefs(batches [][]txdb.Transaction, numItems int, cfg streammine.Config) ([]stepRef, error) {
	refs := make([]stepRef, len(batches))
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for s := range batches {
		first := s
		for first > 0 && batches[first-1][0].Day > batches[s][0].Day-streamWindow {
			first--
		}
		var window []txdb.Transaction
		for _, b := range batches[first : s+1] {
			window = append(window, b...)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			db := txdb.New(window, numItems)
			freq, _, err := streammine.MineWindowFromScratch(db, cfg)
			errs[s] = err
			refs[s] = newStepRef(freq, db.Len())
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for step %d: %w", s+1, err)
		}
	}
	return refs, nil
}

func refRules(r stepRef, vocab *text.Vocabulary) []rules.WordRule {
	return rules.ToWordRules(rules.Generate(r.frequent(), r.windowLen, streamMinConf), vocab.Word)
}

func writeRules(path string, ws []rules.WordRule) error {
	b, err := json.Marshal(ws)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// querySequence draws the seed's query words: Zipf over the corpus's
// queryWords most frequent words, hottest first.
func querySequence(db *txdb.DB, vocab *text.Vocabulary, seed int64) []string {
	df := make([]int, db.NumItems())
	for i := 0; i < db.Len(); i++ {
		for _, it := range db.Tx(i).Items {
			df[it]++
		}
	}
	ids := make([]int, len(df))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return df[ids[a]] > df[ids[b]] })
	ids = ids[:min(queryWords, len(ids))]
	words := make([]string, len(ids))
	for i, id := range ids {
		words[i] = vocab.Word(itemset.Item(id))
	}
	return zipfWords(words, seed)
}

// countingTransport counts the request bytes it sends.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	return c.base.RoundTrip(r)
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := liveGeneration(base); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("pmihp-serve not healthy after 30s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveGeneration asks /healthz which generation is live.
func liveGeneration(base string) (int64, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Status     string `json:"status"`
		Generation int64  `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return 0, fmt.Errorf("/healthz: %s, status %q", resp.Status, h.Status)
	}
	return h.Generation, nil
}

// cacheHitRatio reads the daemon's cache counters from /metrics.
func cacheHitRatio(base string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && (f[0] == "pmihp_serve_cache_hits_total" || f[0] == "pmihp_serve_cache_misses_total") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("/metrics %s: %w", f[0], err)
			}
			vals[f[0]] = v
		}
	}
	if len(vals) != 2 {
		return 0, fmt.Errorf("/metrics: cache counters missing")
	}
	hits := vals["pmihp_serve_cache_hits_total"]
	return ratio(hits, hits+vals["pmihp_serve_cache_misses_total"]), nil
}

// httpFloor is the median /healthz round trip on an idle daemon, in µs:
// what any request pays before the index is touched.
func httpFloor(base string) (float64, error) {
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := liveGeneration(base); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}
