// Command perfbench is the reference benchmark of the 3V system. It runs
// one workload against internal/core, wired the way the program's own
// binaries wire it, for a given number of seconds, checks every output
// against an oracle computed apart from the program, and prints each
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench --workload record-mem|inquiry-skew|durable-tcp --seed N --seconds S --trace 0|1
//	perfbench steady [-runs N] [-seconds S] [-workloads a,b] [-seed0 N] [-trace 0|1]
//
// A run repeats whole rounds until its seconds are spent. A round sets
// the system up (timed as setup_s), runs a fixed warm-up, then a fixed
// number of measured transactions with a fixed number of sweeps, and
// checks the outputs. Each metric is the median over the run's rounds.
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// run alternates untraced and traced rounds and prints the per-layer
// metrics of the traced ones, and the traced round's spans are written
// to .bench_build/spans/.
//
// steady runs each workload N times with seeds seed0..seed0+N-1 and
// prints, per metric, the median, the quartiles and their spread as a
// share of the median, with the host fingerprint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is a reported metric with its unit.
type metricDef struct{ name, unit string }

var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_tps", "1/s"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"publish_p50_ms", "ms"},
	{"cpu_ms_per_ktxn", "ms"},
	{"alloc_kb_per_txn", "KB"},
	{"live_heap_mb", "MB"},
}

var layerDefs = []metricDef{
	{"core.submit_us_mean", "us"},
	{"core.subtxns_per_txn", "count"},
	{"core.dual_writes_per_ktxn", "count"},
	{"coordinator.phase2_ms_p50", "ms"},
	{"coordinator.phase4_ms_p50", "ms"},
	{"coordinator.polls_per_advance", "count"},
	{"counters.msgs_per_advance", "count"},
	{"counters.req_msgs_per_advance", "count"},
	{"counters.reply_msgs_per_advance", "count"},
	{"storage.copies_per_ktxn", "count"},
	{"storage.kb_copied_per_txn", "KB"},
	{"storage.gc_dropped_per_advance", "count"},
	{"storage.max_live_versions", "count"},
	{"transport.msgs_per_txn", "count"},
	{"transport.send_us_mean", "us"},
	{"transport.mean_batch_size", "count"},
	{"transport.max_queue_depth", "count"},
	{"tcpnet.bytes_per_txn", "B"},
	{"tcpnet.frames_per_txn", "count"},
	{"wire.encode_ns_p50", "ns"},
	{"wire.decode_ns_p50", "ns"},
	{"reliable.retransmits_per_ktxn", "count"},
	{"reliable.dup_dropped_per_ktxn", "count"},
	{"wal.records_per_txn", "count"},
	{"wal.kb_per_txn", "KB"},
	{"wal.fsyncs_per_ktxn", "count"},
	{"durable.exec_us_p50", "us"},
	{"replication.sends_per_txn", "count"},
	{"replication.applies_per_txn", "count"},
	{"replication.acks_per_txn", "count"},
	{"replication.backup_lost_per_ktxn", "count"},
	{"obs.stage_wire_ms_p50", "ms"},
	{"obs.stage_queue_ms_p50", "ms"},
	{"obs.stage_service_ms_p50", "ms"},
	{"obs.stage_ack_ms_p50", "ms"},
	{"obs.stage_fsync_ms_p50", "ms"},
	{"obs.stage_session_ms_p50", "ms"},
	{"obs.trace_overhead_cpu_ms_per_ktxn", "ms"},
	{"runtime.allocs_per_txn", "count"},
	{"runtime.gc_cycles_per_ktxn", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.late_ms_p90", "ms"},
	{"loadgen.alloc_kb_per_txn", "KB"},
	{"loadgen.check_ms_per_ktxn", "ms"},
}

var workloadNames = []string{"record-mem", "inquiry-skew", "durable-tcp"}

// buildDir is where the benchmark keeps everything it writes.
const buildDir = ".bench_build"

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	workload := flag.String("workload", "", "record-mem | inquiry-skew | durable-tcp")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from traced rounds")
	flag.Parse()
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	fmt.Println("host:", fingerprint())
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run runs whole rounds of one workload until the run's time is spent.
func run(workload string, seed int64, length time.Duration, traced bool) (result, error) {
	var genKB float64
	heapPath := filepath.Join(buildDir, "profiles", fmt.Sprintf("%s-seed%d.heap", workload, seed))
	round := func(tr bool) (roundOut, *faults, error) {
		switch workload {
		case "record-mem":
			return runGroupRound(recordMem, seed, tr, heapPath)
		case "inquiry-skew":
			return runGroupRound(inquirySkew, seed, tr, heapPath)
		}
		dir := filepath.Join(buildDir, "data", fmt.Sprintf("%s-%d", workload, os.Getpid()))
		return runDurableRound(durableTCP, seed, tr, dir, heapPath)
	}
	switch workload {
	case "record-mem":
		genKB = groupGenAllocKB(recordMem, seed)
	case "inquiry-skew":
		genKB = groupGenAllocKB(inquirySkew, seed)
	default:
		genKB = keyGenAllocKB(durableTCP, seed)
	}

	res := result{Correct: true, Metrics: map[string]metricOut{}}
	var plain, tracedRounds []roundOut
	var lastTracer *tracer
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		enough := len(plain) >= 3
		if traced {
			enough = len(plain) >= 1 && len(tracedRounds) >= 1
		}
		if enough && time.Since(start) >= length {
			break
		}
		out, flt, err := round(tr)
		if err != nil {
			return res, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		if n := flt.n.Load(); n > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "round %d: %d check failures\n", i, n)
			for _, m := range flt.list() {
				fmt.Fprintln(os.Stderr, "  ", m)
			}
		}
		out.e2e["alloc_kb_per_txn"] -= genKB
		if tr {
			tracedRounds = append(tracedRounds, out)
			lastTracer = out.tr
		} else {
			plain = append(plain, out)
		}
		fmt.Printf("round %d (%s): %.0f txn/s, update p50/p90 %.3f/%.3f ms, read p50/p90 %.3f/%.3f ms, setup %.3f s\n",
			i, map[bool]string{false: "untraced", true: "traced"}[tr], out.e2e["throughput_tps"],
			out.e2e["update_p50_ms"], out.e2e["update_p90_ms"], out.e2e["read_p50_ms"], out.e2e["read_p90_ms"], out.e2e["setup_s"])
	}
	median := func(rs []roundOut, get func(roundOut) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = get(r)
		}
		sort.Float64s(v)
		if len(v)%2 == 1 {
			return v[len(v)/2]
		}
		return (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	if !traced {
		fmt.Printf("%s, seed %d: %d rounds, %d transactions, %d failed\n", workload, seed, len(plain), res.Attempted, res.Failed)
		// A round requests only tens of sweeps, so publish_p50_ms is the
		// median over every sweep of the run rather than a median of
		// per-round medians.
		var sweeps []int64
		for _, r := range plain {
			sweeps = append(sweeps, r.sweeps...)
		}
		for _, d := range e2eDefs {
			v := median(plain, func(r roundOut) float64 { return r.e2e[d.name] })
			if d.name == "publish_p50_ms" {
				v = medianMs(sweeps)
			}
			res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
			fmt.Printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
		return res, nil
	}
	fmt.Printf("%s, seed %d: %d untraced and %d traced rounds, %d transactions, %d failed\n",
		workload, seed, len(plain), len(tracedRounds), res.Attempted, res.Failed)
	for _, d := range layerDefs {
		var v float64
		switch d.name {
		case "obs.trace_overhead_cpu_ms_per_ktxn":
			cpu := func(r roundOut) float64 { return r.e2e["cpu_ms_per_ktxn"] }
			v = median(tracedRounds, cpu) - median(plain, cpu)
		case "loadgen.alloc_kb_per_txn":
			v = genKB
		default:
			v = median(tracedRounds, func(r roundOut) float64 { return r.layer[d.name] })
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.csv", workload, seed))
	n, err := lastTracer.writeSpans(path)
	if err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d of %d recorded written to %s\n", n, lastTracer.next.Load(), path)
	fmt.Printf("live heap profile of the last traced round: %s\n", heapPath)
	return res, nil
}
