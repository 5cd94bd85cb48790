package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/text"
)

// genDocs generates a preset corpus and renames its vocabulary by a
// seed-derived bijection (seed 0 keeps the preset corpus exactly).
//
// The seed renames words instead of reseeding the generator because the
// generator's heavy-tailed document lengths make the work itself a
// function of its seed: over 14 corpus-B seeds the 8-node modeled
// seconds ranged from 34.6 to 70.1, wider than any regression bound a
// comparison could use. Renaming keeps the co-occurrence structure, and
// with it the frequent itemsets' shape, while the program still sees new
// inputs: different item ids, hence different THT hash slots, Multipass
// partition boundaries, lexical orders, rule orders and query words.
func genDocs(cfg corpus.Config, seed int64) ([]text.Document, error) {
	docs, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		return docs, nil
	}
	seen := map[string]bool{}
	var words []string
	for _, d := range docs {
		for _, w := range d.Words {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	perm := rand.New(rand.NewSource(seed)).Perm(len(words))
	rename := make(map[string]string, len(words))
	for i, w := range words {
		rename[w] = words[perm[i]]
	}
	for i := range docs {
		ws := make([]string, len(docs[i].Words))
		for j, w := range docs[i].Words {
			ws[j] = rename[w]
		}
		sort.Strings(ws)
		docs[i].Words = ws
	}
	return docs, nil
}

// settle collects the benchmark's own garbage before a timed set-up, so
// that set-up does not pay for what the reference or an earlier set-up
// left on the heap.
func settle() {
	runtime.GC()
}

// digest is a frequent list's identity: two lists have equal digests
// exactly when they hold the same itemsets with the same counts in the
// same order.
type digest [sha256.Size]byte

func digestOf(cs []itemset.Counted) digest {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	for _, c := range cs {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(len(c.Set)))
		for _, it := range c.Set {
			buf = binary.AppendUvarint(buf, uint64(it))
		}
		buf = binary.AppendUvarint(buf, uint64(c.Count))
		h.Write(buf)
	}
	var d digest
	h.Sum(d[:0])
	return d
}
