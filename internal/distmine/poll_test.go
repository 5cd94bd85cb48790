package distmine

import (
	"errors"
	"reflect"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

// TestChunkedPollSplitsLargeGroups drives the shared resolver with the
// runtime's chunking poll and one (peer, k) group larger than the batch:
// the group must go out in batch-sized chunks, one message each, and
// resolve to exactly what one unchunked poll resolves to.
func TestChunkedPollSplitsLargeGroups(t *testing.T) {
	const items, batch = 30, 100
	all := make([]itemset.Item, items)
	for i := range all {
		all[i] = itemset.Item(i)
	}
	var txs []txdb.Transaction
	for tid := 0; tid < 8; tid++ {
		txs = append(txs, txdb.Transaction{TID: txdb.TID(tid), Day: tid, Items: itemset.New(all...)})
	}
	parts := txdb.New(txs, items).SplitChronological(2)
	segs := make([]*tht.Local, len(parts))
	for i, p := range parts {
		segs[i], _ = tht.BuildLocal(p, 4)
	}
	global := tht.NewGlobal(segs)

	// Every pair co-occurs at node 1, so node 0 polls it for all 435.
	var sets []itemset.Itemset
	for a := itemset.Item(0); a < items; a++ {
		for b := a + 1; b < items; b++ {
			sets = append(sets, itemset.New(a, b))
		}
	}
	peerCount := func(s itemset.Itemset) int { return int(s[0]+s[1]) % 5 }
	resolve := func(poll core.PollFunc, m *mining.Metrics) ([]itemset.Counted, error) {
		r := core.NewResolver(core.ResolverConfig{Self: 0, GlobalMin: 4, Global: global, Metrics: m, Poll: poll})
		for i, s := range sets {
			r.Emit(s, i%3)
		}
		err := r.Flush(0)
		return r.Found(), err
	}

	ref := mining.NewMetrics("unchunked")
	want, err := resolve(func(g core.PollGroup) error {
		for i, s := range g.Sets(0, g.Len()) {
			g.Add(i, peerCount(s))
		}
		return nil
	}, &ref)
	if err != nil {
		t.Fatal(err)
	}

	var chunks []int
	m := mining.NewMetrics("chunked")
	got, err := resolve(chunkedPoll(func(peer, k int, req []itemset.Itemset) ([]int32, error) {
		if peer != 1 || k != 2 {
			t.Fatalf("polled peer %d for %d-itemsets, want peer 1 for pairs", peer, k)
		}
		chunks = append(chunks, len(req))
		counts := make([]int32, len(req))
		for i, s := range req {
			counts[i] = int32(peerCount(s))
		}
		return counts, nil
	}, batch, &m), &m)
	if err != nil {
		t.Fatal(err)
	}

	if wantChunks := []int{100, 100, 100, 100, 35}; !reflect.DeepEqual(chunks, wantChunks) {
		t.Fatalf("chunk sizes %v, want %v", chunks, wantChunks)
	}
	if m.MessagesSent != len(chunks) {
		t.Fatalf("MessagesSent = %d, want one per chunk (%d)", m.MessagesSent, len(chunks))
	}
	if len(want) == 0 || len(want) == len(sets) {
		t.Fatalf("reference found %d of %d itemsets; the threshold should split them", len(want), len(sets))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked polls found %d itemsets, unchunked %d (or different counts)", len(got), len(want))
	}
	if m.PollRounds != 1 || ref.PollRounds != 1 || m.GlobalCandidates != ref.GlobalCandidates || m.Work != ref.Work {
		t.Fatalf("chunked accounting rounds=%d cands=%d work=%d, unchunked rounds=%d cands=%d work=%d",
			m.PollRounds, m.GlobalCandidates, m.Work.Units, ref.PollRounds, ref.GlobalCandidates, ref.Work.Units)
	}

	// A failing chunk fails the flush, attributed to global counting.
	boom := errors.New("peer gone")
	calls := 0
	failing := mining.NewMetrics("failing")
	_, err = resolve(chunkedPoll(func(peer, k int, req []itemset.Itemset) ([]int32, error) {
		if calls++; calls == 3 {
			return nil, boom
		}
		return make([]int32, len(req)), nil
	}, batch, &failing), &failing)
	if !errors.Is(err, boom) {
		t.Fatalf("flush error %v, want the third chunk's %v", err, boom)
	}
}
