package transport

import (
	"fmt"
	"sync"

	"pmihp/internal/itemset"
)

// Phase identifies one collective exchange of the PMIHP protocol. Every
// node of a session must call AllGather with the same phase sequence.
type Phase uint8

const (
	// PhaseItemCounts is the post-pass-1 exchange of local item count
	// vectors (the all-reduce of the paper, realized as gather + local
	// sum so the cascade stays lossless).
	PhaseItemCounts Phase = 1
	// PhaseTHT is the exchange of local TID-hash-table segments.
	PhaseTHT Phase = 2
	// PhaseFinal is the final barrier: exiting it proves every peer has
	// finished polling.
	PhaseFinal Phase = 3
	// PhaseResume is the barrier a resumed session runs before polling.
	// A resume skips the collectives its checkpoint covers, and with
	// them the guarantee that every peer's poll handler is installed by
	// the time the first poll arrives; this cheap extra all-gather
	// restores that ordering.
	PhaseResume Phase = 4
)

func (p Phase) String() string {
	switch p {
	case PhaseItemCounts:
		return "item-counts"
	case PhaseTHT:
		return "tht"
	case PhaseFinal:
		return "frequent-lists"
	case PhaseResume:
		return "resume-barrier"
	}
	return fmt.Sprintf("phase-%d", uint8(p))
}

// PollHandler answers a peer's candidate poll with the local support
// count of each itemset, aligned with sets. Implementations need not be
// safe for concurrent calls; the exchange serializes them.
type PollHandler func(k int, sets []itemset.Itemset) []int32

// Exchange is the pluggable communication layer a PMIHP node runs on.
// Two implementations exist: ChanExchange (in-process, channel-backed,
// used by the default simulated runtime and tests) and TCPExchange
// (real sockets between OS processes). The mining protocol in
// internal/distmine is written against this interface only.
//
// Protocol obligation: SetPollHandler must be called before entering
// AllGather(PhaseTHT). Polls are only sent by nodes that completed that
// collective, which transitively guarantees every peer's handler is
// installed before the first poll can arrive.
type Exchange interface {
	// NodeID returns this node's id in [0, Nodes()).
	NodeID() int
	// Nodes returns the cluster size.
	Nodes() int
	// SetPollHandler installs the local poll-answering function.
	SetPollHandler(h PollHandler)
	// AllGather contributes blob and returns every node's blob indexed
	// by node id. It is a collective: all nodes must call it with the
	// same phase, and it blocks until the exchange pattern completes.
	AllGather(phase Phase, blob []byte) ([][]byte, error)
	// Poll asks peer for the local support counts of a batch of
	// k-itemsets and returns the counts aligned with sets.
	Poll(peer, k int, sets []itemset.Itemset) ([]int32, error)
	// Stats returns the node's cumulative wire counters.
	Stats() *WireStats
	// Close releases connections and unblocks pending waits.
	Close() error
}

// ---- in-process channel exchange ----

// chanGroup is the shared state of an in-process cluster: one gather
// rendezvous per phase and the endpoint table polls route through.
type chanGroup struct {
	n         int
	mu        sync.Mutex
	gathers   map[Phase]*gatherState
	endpoints []*ChanExchange
}

type gatherState struct {
	blobs   [][]byte
	entered []bool
	got     int
	done    chan struct{}
}

// ChanExchange is the in-process Exchange: nodes are goroutines, a
// gather is a shared rendezvous, and a poll is a direct (serialized)
// handler call. No bytes ever hit a socket; wire statistics count
// messages and payload bytes as the TCP transport would frame them, so
// the modeled and the measured traffic are comparable.
type ChanExchange struct {
	id    int
	group *chanGroup
	stats WireStats

	pollMu sync.Mutex // serializes handler calls at this endpoint
	poll   PollHandler
}

// NewChanGroup returns the n connected endpoints of an in-process
// cluster.
func NewChanGroup(n int) []*ChanExchange {
	if n <= 0 {
		panic(fmt.Sprintf("transport: NewChanGroup(%d)", n))
	}
	g := &chanGroup{n: n, gathers: make(map[Phase]*gatherState)}
	g.endpoints = make([]*ChanExchange, n)
	for i := range g.endpoints {
		g.endpoints[i] = &ChanExchange{id: i, group: g}
	}
	return g.endpoints
}

// NodeID returns this endpoint's node id.
func (e *ChanExchange) NodeID() int { return e.id }

// Nodes returns the cluster size.
func (e *ChanExchange) Nodes() int { return e.group.n }

// SetPollHandler installs the poll-answering function.
func (e *ChanExchange) SetPollHandler(h PollHandler) {
	e.pollMu.Lock()
	e.poll = h
	e.pollMu.Unlock()
}

// Stats returns the endpoint's wire counters.
func (e *ChanExchange) Stats() *WireStats { return &e.stats }

// Close is a no-op for the in-process exchange.
func (e *ChanExchange) Close() error { return nil }

// AllGather deposits blob at the phase rendezvous and blocks until all
// n endpoints arrived.
func (e *ChanExchange) AllGather(phase Phase, blob []byte) ([][]byte, error) {
	g := e.group
	g.mu.Lock()
	st := g.gathers[phase]
	if st == nil {
		st = &gatherState{blobs: make([][]byte, g.n), entered: make([]bool, g.n), done: make(chan struct{})}
		g.gathers[phase] = st
	}
	if st.entered[e.id] {
		g.mu.Unlock()
		return nil, fmt.Errorf("transport: node %d entered %s all-gather twice", e.id, phase)
	}
	st.entered[e.id] = true
	st.blobs[e.id] = blob
	st.got++
	last := st.got == g.n
	if last {
		close(st.done)
	}
	g.mu.Unlock()
	<-st.done
	// Account the traffic as the framed wire form would cost it.
	e.stats.AddSent(1, int64(frameHeaderLen+len(blob)))
	for i, b := range st.blobs {
		if i != e.id {
			e.stats.AddRecv(1, int64(frameHeaderLen+len(b)))
		}
	}
	return st.blobs, nil
}

// Poll invokes the peer's handler directly, serialized per endpoint
// exactly like the per-connection poll service of the TCP transport.
func (e *ChanExchange) Poll(peer, k int, sets []itemset.Itemset) ([]int32, error) {
	if peer < 0 || peer >= e.group.n || peer == e.id {
		return nil, fmt.Errorf("transport: node %d polling invalid peer %d", e.id, peer)
	}
	p := e.group.endpoints[peer]
	p.pollMu.Lock()
	h := p.poll
	var counts []int32
	if h != nil {
		counts = h(k, sets)
	}
	p.pollMu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("transport: node %d polled node %d before its handler was installed", e.id, peer)
	}
	if len(counts) != len(sets) {
		return nil, fmt.Errorf("transport: node %d replied %d counts for %d sets", peer, len(counts), len(sets))
	}
	reqBytes := int64(frameHeaderLen + 8 + 4*k*len(sets))
	repBytes := int64(frameHeaderLen + 4 + 4*len(counts))
	e.stats.AddSent(1, reqBytes)
	e.stats.AddRecv(1, repBytes)
	p.stats.ServedRecv(1, reqBytes)
	p.stats.ServedSent(1, repBytes)
	return counts, nil
}
