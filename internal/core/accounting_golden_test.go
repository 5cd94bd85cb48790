package core

import (
	"fmt"
	"strings"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
)

// TestPMIHPAccountingGolden pins the simulator's deterministic accounting
// bit for bit: clocks as the hex form of their float64, counters exactly.
// Node clocks count integer ticks, so every charge commutes and these
// values are the same in every goroutine interleaving and at every
// intra-node worker count; any change to how polls are routed, charged
// or counted shows up here. Running it at two worker counts under -race
// also exercises concurrent polls of one peer.
func TestPMIHPAccountingGolden(t *testing.T) {
	db := smallDB(t, corpus.CorpusB(corpus.Small))
	type goldenCase struct {
		name string
		cfg  PMIHPConfig
		opts mining.Options
		// overBatch asserts that some poll group exceeds the batch.
		overBatch bool
	}
	var cases []goldenCase
	for _, mode := range []PollMode{Interleaved, Deferred} {
		for _, n := range []int{1, 2, 4, 8} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("mode=%d n=%d", mode, n),
				cfg:  PMIHPConfig{Nodes: n, Mode: mode},
				opts: mining.Options{MinSupCount: 2, MaxK: 3},
			})
		}
	}
	// A small batch. Interleaved, it makes nodes flush between passes
	// (several poll rounds per node); deferred, the one flush sends
	// per-peer groups larger than the batch, which the simulator never
	// chunks.
	cases = append(cases, goldenCase{
		name: "batch=500 mode=0 n=4",
		cfg:  PMIHPConfig{Nodes: 4},
		opts: mining.Options{MinSupCount: 2, MaxK: 3, GlobalCandidateBatch: 500},
	}, goldenCase{
		name:      "batch=500 mode=1 n=2",
		cfg:       PMIHPConfig{Nodes: 2, Mode: Deferred},
		opts:      mining.Options{MinSupCount: 2, MaxK: 3, GlobalCandidateBatch: 500},
		overBatch: true,
	})
	cases = append(cases, goldenCase{
		name: "approx+tally n=8",
		cfg:  PMIHPConfig{Nodes: 8, ApproxDirectCounts: true},
		opts: mining.Options{MinSupCount: 2, MaxK: 3},
	})

	for _, workers := range []int{1, 2} {
		var b strings.Builder
		for _, c := range cases {
			cfg, opts := c.cfg, c.opts
			opts.IntraNodeWorkers = workers
			if cfg.ApproxDirectCounts {
				cfg.Tally = NewPairTally()
			}
			rec := obs.New(obs.Config{Keep: true})
			opts.Obs = rec
			r, err := MinePMIHP(db, cfg, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.overBatch {
				maxSets := 0
				for _, ev := range rec.Events() {
					if ev.Poll != nil && ev.Poll.Sets > maxSets {
						maxSets = ev.Poll.Sets
					}
				}
				if maxSets <= opts.GlobalCandidateBatch {
					t.Fatalf("%s: largest poll group %d sets does not exceed the batch", c.name, maxSets)
				}
			}
			fmt.Fprintf(&b, "%s frequent=%d total=%x global=%x\n",
				c.name, len(r.Result.Frequent), r.TotalSeconds, r.GlobalCountSeconds)
			for _, nd := range r.Nodes {
				m := &nd.Metrics
				fmt.Fprintf(&b, "  node=%d sec=%x msgs=%d bytes=%d rounds=%d serve=%d units=%d held=%d\n",
					nd.Node, nd.Seconds, m.MessagesSent, m.BytesSent, m.PollRounds,
					nd.PollServeUnits, m.Work.Units, m.PeakHeldBytes)
			}
			if cfg.Tally != nil {
				fmt.Fprintf(&b, "  tally distinct=%d multi=%d\n", cfg.Tally.Distinct(), cfg.Tally.CountedAtLeast(2))
			}
		}
		got := b.String()
		if got == pmihpAccountingGolden {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(pmihpAccountingGolden, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("workers=%d line %d:\n got  %q\n want %q", workers, i+1, g, w)
			}
		}
		t.Fatalf("workers=%d: accounting differs from the golden record; full output:\n%s", workers, got)
	}
}

// pmihpAccountingGolden was recorded before the simulator's polls became
// synchronous calls; it must never be regenerated to absorb a change.
const pmihpAccountingGolden = `mode=0 n=1 frequent=3751 total=0x1.0359c49774257p+01 global=0x0p+00
  node=0 sec=0x1.0359c49774257p+01 msgs=0 bytes=0 rounds=0 serve=0 units=4041098 held=1627016
mode=0 n=2 frequent=3751 total=0x1.16dc8cab895fep+00 global=0x0p+00
  node=0 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=7980 units=1793360 held=694715
  node=1 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=9406 units=2029298 held=733389
mode=0 n=4 frequent=3751 total=0x1.94158380a1849p-02 global=0x0p+00
  node=0 sec=0x1.94158380a1849p-02 msgs=18 bytes=765924 rounds=1 serve=3533 units=401450 held=228579
  node=1 sec=0x1.94158380a1849p-02 msgs=18 bytes=769996 rounds=1 serve=4613 units=566422 held=266641
  node=2 sec=0x1.94158380a1849p-02 msgs=18 bytes=769000 rounds=1 serve=4539 units=547650 held=263540
  node=3 sec=0x1.94158380a1849p-02 msgs=18 bytes=770768 rounds=1 serve=5671 units=613163 held=273283
mode=0 n=8 frequent=3751 total=0x1.9a0c8fe318babp-03 global=0x0p+00
  node=0 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=668584 rounds=1 serve=1373 units=85156 held=83201
  node=1 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=672624 rounds=1 serve=2012 units=126139 held=94309
  node=2 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=673796 rounds=1 serve=2318 units=162148 held=104049
  node=3 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=672116 rounds=1 serve=2049 units=136380 held=98325
  node=4 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=673220 rounds=1 serve=2303 units=153244 held=102553
  node=5 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=670476 rounds=1 serve=1798 units=132393 held=97985
  node=6 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=670724 rounds=1 serve=1823 units=126643 held=96537
  node=7 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=676068 rounds=1 serve=3447 units=208473 held=112593
mode=1 n=1 frequent=3751 total=0x1.0359c49774257p+01 global=0x0p+00
  node=0 sec=0x1.0359c49774257p+01 msgs=0 bytes=0 rounds=0 serve=0 units=4041098 held=1627016
mode=1 n=2 frequent=3751 total=0x1.16dc8cab895fep+00 global=0x1.f74bae419c48p-07
  node=0 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=7980 units=1793360 held=694715
  node=1 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=9406 units=2029298 held=733389
mode=1 n=4 frequent=3751 total=0x1.94158380a1849p-02 global=0x1.407ee0b0af6p-06
  node=0 sec=0x1.94158380a1849p-02 msgs=18 bytes=765924 rounds=1 serve=3533 units=401450 held=228579
  node=1 sec=0x1.94158380a1849p-02 msgs=18 bytes=769996 rounds=1 serve=4613 units=566422 held=266641
  node=2 sec=0x1.94158380a1849p-02 msgs=18 bytes=769000 rounds=1 serve=4539 units=547650 held=263540
  node=3 sec=0x1.94158380a1849p-02 msgs=18 bytes=770768 rounds=1 serve=5671 units=613163 held=273283
mode=1 n=8 frequent=3751 total=0x1.9a0c8fe318babp-03 global=0x1.0b81a40073a98p-05
  node=0 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=668584 rounds=1 serve=1373 units=85156 held=83201
  node=1 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=672624 rounds=1 serve=2012 units=126139 held=94309
  node=2 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=673796 rounds=1 serve=2318 units=162148 held=104049
  node=3 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=672116 rounds=1 serve=2049 units=136380 held=98325
  node=4 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=673220 rounds=1 serve=2303 units=153244 held=102553
  node=5 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=670476 rounds=1 serve=1798 units=132393 held=97985
  node=6 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=670724 rounds=1 serve=1823 units=126643 held=96537
  node=7 sec=0x1.9a0c8fe318babp-03 msgs=37 bytes=676068 rounds=1 serve=3447 units=208473 held=112593
batch=500 mode=0 n=4 frequent=3751 total=0x1.a89fa54c55433p-02 global=0x0p+00
  node=0 sec=0x1.a89fa54c55433p-02 msgs=34 bytes=766180 rounds=2 serve=3533 units=401450 held=228579
  node=1 sec=0x1.a89fa54c55433p-02 msgs=36 bytes=770284 rounds=3 serve=4613 units=566422 held=266641
  node=2 sec=0x1.a89fa54c55433p-02 msgs=36 bytes=769288 rounds=3 serve=4539 units=547650 held=263540
  node=3 sec=0x1.a89fa54c55433p-02 msgs=38 bytes=771088 rounds=3 serve=5671 units=613163 held=273283
batch=500 mode=1 n=2 frequent=3751 total=0x1.16dc8cab895fep+00 global=0x1.f74bae419c48p-07
  node=0 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=7980 units=1793360 held=694715
  node=1 sec=0x1.16dc8cab895fep+00 msgs=7 bytes=711476 rounds=1 serve=9406 units=2029298 held=733389
approx+tally n=8 frequent=3751 total=0x1.99f5044a7ac01p-03 global=0x0p+00
  node=0 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=668584 rounds=1 serve=1373 units=85149 held=83201
  node=1 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=672616 rounds=1 serve=2010 units=126126 held=94309
  node=2 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=673784 rounds=1 serve=2313 units=162131 held=104049
  node=3 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=672096 rounds=1 serve=2043 units=136365 held=98325
  node=4 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=673184 rounds=1 serve=2298 units=153228 held=102553
  node=5 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=670460 rounds=1 serve=1795 units=132380 held=97985
  node=6 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=670684 rounds=1 serve=1820 units=126627 held=96537
  node=7 sec=0x1.99f5044a7ac01p-03 msgs=37 bytes=675996 rounds=1 serve=3444 units=208405 held=112593
  tally distinct=1846 multi=1543
`
