package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// fingerprint describes the host a measurement was taken on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return fmt.Sprintf("vCPUs=%d cpu=%q go=%s GOMAXPROCS=%d GOGC=%s",
		runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0), gogc)
}

// quartiles returns the three cut points of sorted values the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so spreads printed here match that reference.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// steady runs each workload several times with different seeds and
// prints each metric's median, quartiles and relative spread.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Int("seconds", 10, "seconds per run")
	list := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	seed0 := fs.Int64("seed0", 1, "seed of the first run")
	trace := fs.Int("trace", 0, "trace flag passed to every run")
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	fmt.Println("host:", fingerprint())
	status := 0
	for _, w := range strings.Split(*list, ",") {
		var results []result
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(os.Args[0], "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r result
			// A run whose checks fail exits nonzero after printing its
			// result; its figures are still reported, marked correct=false.
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
				fmt.Printf("%s seed %d: run failed: %v %v\n", w, seed, err, jerr)
				status = 1
				continue
			}
			if !r.Correct || err != nil {
				status = 1
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d", w, seed, r.Correct, r.Attempted, r.Failed)
			for _, d := range e2eDefs {
				if m, ok := r.Metrics[d.name]; ok {
					fmt.Printf(" %s=%.4g", d.name, m.Value)
				}
			}
			fmt.Println()
			results = append(results, r)
		}
		if len(results) == 0 {
			continue
		}
		var names []string
		for k := range results[0].Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs of %d s\n", w, len(results), *seconds)
		fmt.Printf("  %-36s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, name := range names {
			v := make([]float64, 0, len(results))
			for _, r := range results {
				v = append(v, r.Metrics[name].Value)
			}
			sort.Float64s(v)
			q1, q2, q3 := quartiles(v)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-36s %12.4f %12.4f %12.4f %7.1f%% %s\n", name, q1, q2, q3, 100*spread, results[0].Metrics[name].Unit)
		}
		shares := map[string]bool{}
		for _, r := range results {
			shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
		}
		fmt.Printf("  failed/attempted per run: %v\n", keys(shares))
	}
	return status
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
