package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

const (
	// loadConns is the number of connections the open-loop generator
	// sends on; a query due while both are busy waits, and that wait
	// counts in its latency.
	loadConns = 2
	// maxQueries bounds the query sequence: three minutes at queryRate,
	// longer than any run may take.
	maxQueries = 180 * queryRate
)

// zipfWords draws maxQueries query words, Zipf-distributed over words
// (index 0 hottest), from a generator seeded by the workload seed.
func zipfWords(words []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x51e7))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(words)-1))
	out := make([]string, maxQueries)
	for i := range out {
		out[i] = words[z.Uint64()]
	}
	return out
}

// sample is one /expand answer kept for checking.
type sample struct {
	Word       string          `json:"word"`
	Expansions json.RawMessage `json:"expansions"`
}

// load is an open-loop /expand generator: query i is due at start +
// i/queryRate whatever happened to earlier ones, and its latency runs
// from its due time, so a stall is charged to every query it delays.
type load struct {
	base    string
	words   []string
	client  *http.Client
	stopped chan struct{}
	wg      sync.WaitGroup

	mu  sync.Mutex
	res loadResult
}

// loadResult is what the generator measured.
type loadResult struct {
	Lat      []float64          `json:"lat_ms"`  // from due time to the full answer
	Late     []float64          `json:"late_ms"` // from due time until the generator issued the query
	Failed   int                `json:"failed"`
	Notes    []string           `json:"notes"`
	Samples  map[int64][]sample `json:"samples"`   // per generation, the first samplesPerGen answers
	ServedBy map[int64][]string `json:"served_by"` // per generation, the words it answered
}

func newLoad(base string, words []string) *load {
	return &load{
		base:  base,
		words: words,
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     loadConns,
				MaxIdleConnsPerHost: loadConns,
				DisableCompression:  true,
			},
		},
		stopped: make(chan struct{}),
		res:     loadResult{Samples: map[int64][]sample{}, ServedBy: map[int64][]string{}},
	}
}

type job struct {
	word        string
	due, issued time.Time
}

// start begins sending; stop ends the schedule and waits for every
// query in flight.
func (l *load) start() {
	// Sized to hold every query a run can schedule, so the schedule
	// never waits on the connections.
	jobs := make(chan job, maxQueries)
	interval := time.Second / queryRate
	l.wg.Add(1 + loadConns)
	go func() {
		defer l.wg.Done()
		defer close(jobs)
		t0 := time.Now()
		for i, w := range l.words {
			due := t0.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			select {
			case <-l.stopped:
				return
			default:
			}
			jobs <- job{word: w, due: due, issued: time.Now()}
		}
	}()
	for c := 0; c < loadConns; c++ {
		go func() {
			defer l.wg.Done()
			for j := range jobs {
				l.send(j)
			}
		}()
	}
}

func (l *load) stop() {
	close(l.stopped)
	l.wg.Wait()
	l.client.CloseIdleConnections()
}

func (l *load) send(j job) {
	var answer struct {
		Generation int64           `json:"generation"`
		Expansions json.RawMessage `json:"expansions"`
	}
	err := l.get(j.word, &answer)
	done := time.Now()

	l.mu.Lock()
	defer l.mu.Unlock()
	r := &l.res
	if err != nil {
		r.Failed++
		if len(r.Notes) < 10 {
			r.Notes = append(r.Notes, fmt.Sprintf("/expand?q=%s: %v", j.word, err))
		}
		return
	}
	r.Lat = append(r.Lat, float64(done.Sub(j.due).Nanoseconds())/1e6)
	r.Late = append(r.Late, float64(j.issued.Sub(j.due).Nanoseconds())/1e6)
	r.ServedBy[answer.Generation] = append(r.ServedBy[answer.Generation], j.word)
	if len(r.Samples[answer.Generation]) < samplesPerGen {
		r.Samples[answer.Generation] = append(r.Samples[answer.Generation], sample{Word: j.word, Expansions: answer.Expansions})
	}
}

func (l *load) get(word string, answer any) error {
	resp, err := l.client.Get(fmt.Sprintf("%s/expand?q=%s&limit=%d", l.base, url.QueryEscape(word), queryLimit))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %.200s", resp.Status, body)
	}
	return json.Unmarshal(body, answer)
}

// The generator runs in a process of its own, so the stream miner's
// garbage collection and CPU use in the benchmark process cannot delay when
// queries are sent: on two cores, a goroutine that finds both Go
// processors busy waits for the scheduler's 10ms preemption tick, which
// would be charged to the server. The benchmark writes the query words as
// one JSON line, waits for the ready line, and later writes a stop line;
// the generator then prints its loadResult as JSON and exits.
const loadReady = "perfbench load ready"

// loadMain is the generator process's main.
func loadMain(base string) int {
	in := bufio.NewReader(os.Stdin)
	line, err := in.ReadBytes('\n')
	var words []string
	if err == nil {
		err = json.Unmarshal(line, &words)
	}
	if err != nil || len(words) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench load: reading query words:", err)
		return 1
	}
	l := newLoad(base, words)
	l.start()
	fmt.Println(loadReady)
	in.ReadString('\n') // the stop line, or EOF if the benchmark died
	l.stop()
	if err := json.NewEncoder(os.Stdout).Encode(&l.res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench load:", err)
		return 1
	}
	return 0
}

// loadProc is the benchmark's handle on a running generator process.
type loadProc struct {
	d   *daemon
	in  io.WriteCloser
	out *bufio.Reader
}

// startLoad starts a generator process against base and returns once it
// is sending.
func startLoad(p *procSet, self, base string, words []string) (*loadProc, error) {
	cmd := exec.Command(self, "-load", base)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d, err := p.run(cmd)
	if err != nil {
		return nil, err
	}
	lp := &loadProc{d: d, in: in, out: bufio.NewReader(out)}
	if err := json.NewEncoder(in).Encode(words); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	line, err := lp.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != loadReady {
		return nil, fmt.Errorf("load generator did not start: %q %v", line, err)
	}
	return lp, nil
}

// finish stops the generator and returns what it measured.
func (lp *loadProc) finish(p *procSet) (*loadResult, error) {
	defer p.stop(lp.d)
	if _, err := io.WriteString(lp.in, "stop\n"); err != nil {
		return nil, fmt.Errorf("stopping load generator: %w", err)
	}
	var r loadResult
	if err := json.NewDecoder(lp.out).Decode(&r); err != nil {
		return nil, fmt.Errorf("load generator result: %w", err)
	}
	return &r, nil
}
