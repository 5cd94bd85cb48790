package mining

import "pmihp/internal/itemset"

// PairTable is a flat open-addressing hash table from packed pair keys
// (uint64(a)<<32 | uint64(b), a < b) to int32 values. It replaces the Go
// map[uint64]int32 / map[uint64]struct{} structures on the counting hot
// paths: probes are a fibonacci hash plus a linear scan over a plain
// uint64 slice, with no hashing interface, no bucket indirection, and no
// per-insert allocation once the table is sized.
//
// The zero key doubles as the empty-slot sentinel, which is safe for pair
// keys: a packed pair always has b > a >= 0, so its low 32 bits are nonzero
// and the key can never be zero. PairTable panics if a zero key is inserted.
type PairTable struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int
}

// pairTableHash spreads a packed pair key over the table. Fibonacci hashing
// (multiplication by the odd fractional part of the golden ratio) mixes both
// item halves into the high bits, which the mask then selects from.
const pairTableMult = 0x9E3779B97F4A7C15

// NewPairTable returns a table pre-sized for about hint entries.
func NewPairTable(hint int) *PairTable {
	t := &PairTable{}
	t.init(hint)
	return t
}

func (t *PairTable) init(hint int) {
	size := 16
	// Keep the load factor at or below 1/2.
	for size < 2*hint {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint64(size - 1)
	t.n = 0
}

// Len returns the number of stored keys.
func (t *PairTable) Len() int { return t.n }

func (t *PairTable) slot(key uint64) uint64 {
	return (key * pairTableMult) & t.mask
}

// Put stores val under key, replacing any previous value.
func (t *PairTable) Put(key uint64, val int32) {
	if key == 0 {
		panic("mining: PairTable zero key")
	}
	if t.keys == nil || 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			t.vals[i] = val
			return
		case 0:
			t.keys[i], t.vals[i] = key, val
			t.n++
			return
		}
	}
}

// Get returns the value stored under key.
func (t *PairTable) Get(key uint64) (int32, bool) {
	if t.keys == nil {
		return 0, false
	}
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// Reset empties the table, keeping its capacity.
func (t *PairTable) Reset() {
	if t.n == 0 {
		return
	}
	clear(t.keys)
	t.n = 0
}

func (t *PairTable) grow() {
	if t.keys == nil {
		t.init(8)
		return
	}
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys)) // init doubles: size >= 2*hint
	for i, k := range oldKeys {
		if k != 0 {
			t.Put(k, oldVals[i])
		}
	}
}

// Arena carves small itemsets out of fixed-size chunks so that candidate
// generation performs one allocation per few thousand candidates instead of
// one per candidate. Slices handed out never move: a chunk is abandoned (not
// grown) when full, so earlier itemsets stay valid for the lifetime of the
// arena's user.
type Arena struct {
	chunk itemset.Itemset
}

const arenaChunk = 8192

// Alloc returns a zeroed itemset of length k backed by the arena.
func (a *Arena) Alloc(k int) itemset.Itemset {
	if len(a.chunk)+k > cap(a.chunk) {
		size := arenaChunk
		if k > size {
			size = k
		}
		a.chunk = make(itemset.Itemset, 0, size)
	}
	n := len(a.chunk)
	a.chunk = a.chunk[:n+k]
	return a.chunk[n : n+k : n+k]
}
