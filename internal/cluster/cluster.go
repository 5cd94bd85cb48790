// Package cluster provides the simulated cluster-of-workstations substrate
// the parallel miners run on: per-node simulated clocks driven by the
// mining cost model, a network cost model calibrated to the paper's Fast
// Ethernet testbed, the logical binary n-cube exchange pattern of PMIHP's
// communication steps, and per-node traffic statistics.
//
// The processing nodes themselves are goroutines (see internal/core and
// internal/countdist); this package supplies the time and cost accounting.
// DESIGN.md §2 documents why simulated time is the honest way to evaluate
// an 8-node algorithm on this host and why it preserves the paper's
// comparisons: every reported effect is driven by per-node candidate and
// scan counts, which are measured exactly.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pmihp/internal/mining"
)

// NetParams models the interconnect: a fixed per-message latency and a
// point-to-point bandwidth.
type NetParams struct {
	LatencySec  float64
	BytesPerSec float64
}

// FastEthernet approximates the paper's switched 100 Mbit/s Fast Ethernet
// with Java RMI overheads (RMI round trips cost well above raw wire
// latency).
var FastEthernet = NetParams{LatencySec: 500e-6, BytesPerSec: 11e6}

// MsgSec returns the modeled one-way transfer time of a message.
func (p NetParams) MsgSec(bytes int64) float64 {
	return p.LatencySec + float64(bytes)/p.BytesPerSec
}

// Clock is a node's simulated clock. It is safe for concurrent use (a
// node's miner and its peers' polls advance it from different goroutines).
// It counts whole picosecond ticks, so concurrent advances commute: the
// same charges in any order give the identical reading, which float
// seconds (rounded after every addition) would not.
type Clock struct {
	mu    sync.Mutex
	ticks int64
}

// ticksPerSec is the clock resolution. A work unit is a whole number of
// ticks, so work charges convert exactly; message times round to the
// nearest tick once per charge.
const (
	ticksPerSec  = 1_000_000_000_000
	ticksPerUnit = ticksPerSec / mining.UnitsPerSecond
)

func toTicks(s float64) int64 { return int64(math.Round(s * ticksPerSec)) }

func toSeconds(t int64) float64 { return float64(t) / ticksPerSec }

// AdvanceWork advances the clock by the simulated duration of the given
// cost-model work units.
func (c *Clock) AdvanceWork(units int64) { c.advance(units * ticksPerUnit) }

// AdvanceSec advances the clock by s simulated seconds.
func (c *Clock) AdvanceSec(s float64) { c.advance(toTicks(s)) }

func (c *Clock) advance(t int64) {
	c.mu.Lock()
	c.ticks += t
	c.mu.Unlock()
}

// RaiseTo lifts the clock to at least s (barrier semantics).
func (c *Clock) RaiseTo(s float64) { c.raise(toTicks(s)) }

func (c *Clock) raise(t int64) {
	c.mu.Lock()
	if c.ticks < t {
		c.ticks = t
	}
	c.mu.Unlock()
}

// Now returns the current simulated time.
func (c *Clock) Now() float64 { return toSeconds(c.read()) }

func (c *Clock) read() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// NodeStats tallies the traffic a node originates.
type NodeStats struct {
	mu       sync.Mutex
	Messages int
	Bytes    int64
}

func (s *NodeStats) add(msgs int, bytes int64) {
	s.mu.Lock()
	s.Messages += msgs
	s.Bytes += bytes
	s.mu.Unlock()
}

// Snapshot returns the current totals.
func (s *NodeStats) Snapshot() (msgs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Messages, s.Bytes
}

// Fabric is the simulated interconnect for one parallel run.
type Fabric struct {
	n      int
	net    NetParams
	clocks []*Clock
	stats  []*NodeStats
}

// New returns a fabric for n nodes.
func New(n int, net NetParams) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: New(%d)", n))
	}
	f := &Fabric{n: n, net: net, clocks: make([]*Clock, n), stats: make([]*NodeStats, n)}
	for i := range f.clocks {
		f.clocks[i] = &Clock{}
		f.stats[i] = &NodeStats{}
	}
	return f
}

// N returns the node count.
func (f *Fabric) N() int { return f.n }

// Net returns the interconnect parameters.
func (f *Fabric) Net() NetParams { return f.net }

// Clock returns node i's clock.
func (f *Fabric) Clock(i int) *Clock { return f.clocks[i] }

// Stats returns node i's traffic stats.
func (f *Fabric) Stats(i int) *NodeStats { return f.stats[i] }

// ChargeSend accounts a point-to-point message: the sender's clock and
// traffic advance by the transfer cost, and the receiver's clock advances by
// the same cost (receive-side processing).
func (f *Fabric) ChargeSend(from, to int, bytes int64) {
	t := toTicks(f.net.MsgSec(bytes))
	f.clocks[from].advance(t)
	f.clocks[to].advance(t)
	f.stats[from].add(1, bytes)
}

// Barrier raises every clock to the current maximum and returns it —
// the synchronization point between parallel phases.
func (f *Fabric) Barrier() float64 {
	max := f.maxTicks()
	for _, c := range f.clocks {
		c.raise(max)
	}
	return toSeconds(max)
}

// MaxClock returns the largest node clock — the total execution time of a
// parallel run.
func (f *Fabric) MaxClock() float64 { return toSeconds(f.maxTicks()) }

func (f *Fabric) maxTicks() int64 {
	max := int64(0)
	for _, c := range f.clocks {
		if t := c.read(); t > max {
			max = t
		}
	}
	return max
}

// advanceAll advances every clock by a collective's elapsed time and
// returns that time as the clocks count it (to the nearest tick).
func (f *Fabric) advanceAll(elapsed float64) float64 {
	t := toTicks(elapsed)
	for _, c := range f.clocks {
		c.advance(t)
	}
	return toSeconds(t)
}

// CubeSteps returns the number of exchange-merge steps of the logical binary
// n-cube over n nodes (⌈log2 n⌉; the paper's 8 nodes form a 3-cube).
func CubeSteps(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// CubePartner returns the partner of node i along dimension d (0-based) and
// whether that partner exists (it may not when n is not a power of two).
func CubePartner(i, d, n int) (partner int, ok bool) {
	p := i ^ (1 << d)
	return p, p < n
}

// AllGather performs the cost accounting of a hypercube all-gather in which
// every node contributes perNodeBytes: at step d each node exchanges the
// 2^d blocks gathered so far with its dimension-d partner. All clocks
// synchronize first (it is a collective) and advance together; per-node
// traffic grows by the bytes each node sends. It returns the elapsed
// simulated time of the collective.
func (f *Fabric) AllGather(perNodeBytes int64) float64 {
	if f.n == 1 {
		return 0
	}
	f.Barrier()
	elapsed := 0.0
	for d := 0; d < CubeSteps(f.n); d++ {
		blockBytes := perNodeBytes * int64(1<<d)
		elapsed += f.net.MsgSec(blockBytes)
		for i := 0; i < f.n; i++ {
			f.stats[i].add(1, blockBytes)
		}
	}
	return f.advanceAll(elapsed)
}

// AllReduce performs the cost accounting of a hypercube all-reduce of a
// fixed-size vector (bytes per step is constant, unlike AllGather).
func (f *Fabric) AllReduce(vectorBytes int64) float64 {
	if f.n == 1 {
		return 0
	}
	f.Barrier()
	elapsed := 0.0
	for d := 0; d < CubeSteps(f.n); d++ {
		elapsed += f.net.MsgSec(vectorBytes)
		for i := 0; i < f.n; i++ {
			f.stats[i].add(1, vectorBytes)
		}
	}
	return f.advanceAll(elapsed)
}
