package distmine

import (
	"bytes"
	"fmt"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/text"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

func buildDB(t testing.TB, cfg corpus.Config) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

// requireIdentical asserts the distmine frequent list is byte-identical
// to the in-process PMIHP reference: same itemsets, same counts, same
// order.
func requireIdentical(t *testing.T, ref []mining.Result, got *Result) {
	t.Helper()
	want := ref[0].Frequent
	if len(got.Frequent) != len(want) {
		t.Fatalf("frequent list length %d, want %d", len(got.Frequent), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got.Frequent[i].Set) || want[i].Count != got.Frequent[i].Count {
			t.Fatalf("entry %d: got %v/%d, want %v/%d",
				i, got.Frequent[i].Set, got.Frequent[i].Count, want[i].Set, want[i].Count)
		}
	}
}

func pmihpRef(t *testing.T, db *txdb.DB, nodes int, opts mining.Options) []mining.Result {
	t.Helper()
	r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: nodes}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []mining.Result{*r.Result}
}

func TestInProcessMatchesPMIHP(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		opts  mining.Options
	}{
		{1, mining.Options{MinSupCount: 2, MaxK: 3}},
		{2, mining.Options{MinSupCount: 2, MaxK: 3}},
		{4, mining.Options{MinSupFrac: 0.05, MaxK: 4}},
		{7, mining.Options{MinSupCount: 2, MaxK: 3}}, // non-power-of-two
		{8, mining.Options{MinSupCount: 3}},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.nodes), func(t *testing.T) {
			db := buildDB(t, corpus.CorpusB(corpus.Small))
			ref := pmihpRef(t, db, tc.nodes, tc.opts)
			got, err := MineInProcess(db, tc.nodes, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got)
		})
	}
}

func TestInProcessWireStatsAccounted(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	res, err := MineInProcess(db, 4, mining.Options{MinSupCount: 2, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.WireMessagesSent == 0 || res.Metrics.WireBytesSent == 0 {
		t.Fatalf("wire traffic not accounted: %+v", res.Metrics)
	}
	if res.Metrics.WireRetries != 0 {
		t.Fatalf("in-process exchange reported retries: %d", res.Metrics.WireRetries)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("node stats: %d", len(res.Nodes))
	}
}

// TestFinalCollectiveIsBarrier pins the runtime's final collective as a
// barrier: with the frequent lists assembled once from the nodes' reports
// instead of all-gathered, each node's exchange:final span moves a few
// dozen bytes at most, and the assembled result is still byte-identical
// to the simulator's.
func TestFinalCollectiveIsBarrier(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rec := obs.New(obs.Config{Keep: true})
			traced := opts
			traced.Obs = rec
			got, err := MineInProcess(db, n, traced)
			if err != nil {
				t.Fatal(err)
			}
			ref := pmihpRef(t, db, n, opts)
			want := transport.AppendCountedList(nil, ref[0].Frequent)
			if !bytes.Equal(transport.AppendCountedList(nil, got.Frequent), want) {
				t.Fatal("frequent list not byte-identical to core.MinePMIHP")
			}
			final := map[int]int64{}
			var pollBytes int64
			for _, ev := range rec.Events() {
				if ev.Type != obs.TypeSpan {
					continue
				}
				switch ev.Span.Name {
				case "exchange:final":
					final[ev.Span.Node] = ev.Span.Bytes
				case "poll:resolve":
					pollBytes += ev.Span.Bytes
				}
			}
			if len(final) != n {
				t.Fatalf("%d nodes recorded exchange:final, want %d", len(final), n)
			}
			for node, b := range final {
				if b <= 0 || b > 64 {
					t.Errorf("node %d: exchange:final moved %d bytes, want a barrier's few dozen", node, b)
				}
			}
			// The frequent lists are far larger than the bound, so a
			// regression to all-gathering them cannot pass unnoticed.
			if size := int64(len(want)); size <= 64*int64(n) {
				t.Fatalf("frequent list is only %d bytes; the bound proves nothing", size)
			}
			if pollBytes == 0 {
				t.Fatal("no poll traffic recorded")
			}
		})
	}
}
