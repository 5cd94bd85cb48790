package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// decl declares one reported metric. workloads lists the workloads that
// exercise the layer; every other workload bypasses it and reports 0.
// End-to-end metrics apply to every workload (workloads is nil).
type decl struct {
	name, unit string
	workloads  []string
}

var (
	clusters = []string{"cluster_sparse"}
	stream   = []string{"stream_serve"}
	all      = []string{"cluster_sparse", "stream_serve"}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. README.md gives each one's meaning per workload.
var endToEnd = []decl{
	{"setup_s", "s", nil},
	{"mine_s", "s", nil},
	{"fresh_s.p50", "s", nil},
	{"fresh_s.p75", "s", nil},
	{"request_ms.p50", "ms", nil},
	{"wire_mb", "MB", nil},
	{"peak_rss_mb", "MB", nil},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []decl{
	{"text.todb_s", "s", all},
	{"txdb.split_s", "s", clusters},
	{"txdb.encode_s", "s", clusters},
	{"txdb.partition_mb", "MB", clusters},
	{"tht.build_s", "s", clusters},
	{"core.local_mine_s", "s", clusters},
	{"core.candidates", "count", clusters},
	{"core.pruned_tht", "count", clusters},
	{"core.tht_prune_ratio", "ratio", clusters},
	{"core.global_candidates", "count", clusters},
	{"core.poll_count_s", "s", clusters},
	{"core.merge_s", "s", clusters},
	{"core.mine_pmihp_s", "s", clusters},
	{"distmine.itemcounts_s", "s", clusters},
	{"distmine.tht_exchange_s", "s", clusters},
	{"distmine.poll_s", "s", clusters},
	{"distmine.final_exchange_s", "s", clusters},
	{"distmine.imbalance", "ratio", clusters},
	{"transport.messages", "count", clusters},
	{"transport.retries", "count", clusters},
	{"sim_seconds", "modeled_s", clusters},
	{"bytes_held", "B", clusters},
	{"sim.poll_rounds", "count", clusters},
	{"sim.global_candidates", "count", clusters},
	{"sim.tht_exchange_s", "modeled_s", clusters},
	{"sim.final_exchange_s", "modeled_s", clusters},
	{"sim.seconds_drift", "ratio", clusters},
	{"streammine.ingest_s", "s", stream},
	{"streammine.new_tx", "count", stream},
	{"streammine.scanned_tx", "count", stream},
	{"streammine.scan_ratio", "ratio", stream},
	{"rules.generate_s", "s", stream},
	{"rules.count", "count", stream},
	{"serve.swap_s", "s", stream},
	{"serve.index_build_s", "s", stream},
	{"serve.index_mb", "MB", stream},
	{"serve.expand_index_us", "us", stream},
	{"serve.cache_hit_ratio", "ratio", stream},
	{"serve.http_floor_us", "us", stream},
	{"serve.expand_ms.p99", "ms", stream},
	{"load.late_ms.p99", "ms", stream},
	{"trace.overhead_s", "s", all},
	{"trace.spans", "count", all},
}

// finish checks the metrics a run measured against the declarations and
// fills the layers the workload bypasses with 0. A declared metric the
// workload should have measured, an undeclared one, a unit mismatch, or
// a non-finite value is an error: a result the comparison cannot use
// must not be printed. With partial set (the run counted failed
// operations) a metric left unmeasured is omitted instead.
func finish(workload string, measured map[string]metric, decls []decl, partial bool) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range decls {
		m, ok := measured[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		case ok:
			out[d.name] = m
		case partial && (d.workloads == nil || contains(d.workloads, workload)):
		case d.workloads == nil || contains(d.workloads, workload):
			return nil, fmt.Errorf("metric %s not measured", d.name)
		default:
			out[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// checkDeclared compares the declarations with BENCHMARK.json in the
// working directory, so the two cannot drift apart.
func checkDeclared(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []decl) error {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			return fmt.Errorf("%s: %s metrics %v, benchmark declares %v", path, what, g, w)
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		return fmt.Errorf("%s: workloads %v, benchmark runs %v", path, names, workloadNames())
	}
	return nil
}
