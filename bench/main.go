// Command bench is the repository's one benchmark: coordination-run latency,
// throughput and CPU cost over five workloads driven through the public API,
// with a traced run that attributes a run's time to the layers. README.md
// describes the metrics, the workloads and how to compare two commits;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	bash bench/run.sh --workload lan3-small-w1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1            # every workload, end-to-end metrics
//	bash bench/run.sh --trace 1           # every workload, per-layer metrics
//	bash bench/run.sh --agree             # the set twice; compare with the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads (default: all)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		seconds = flag.Float64("seconds", 15, "measured time per workload")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		agree   = flag.Bool("agree", false, "run the set twice and compare against BENCHMARK.json's bounds")
		outDir  = flag.String("out", "bench/out", "directory for trace files and the durable workload's storage")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var set []*workload
	if *names == "" {
		for i := range workloads {
			set = append(set, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, err := findWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		set = append(set, w)
	}
	length := time.Duration(*seconds * float64(time.Second))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printEnv(*outDir, *seed, length, *trace == 1)

	if *agree {
		os.Exit(runAgree(set, *seed, length, *outDir))
	}
	code := 0
	for _, w := range set {
		res := runWorkload(w, *seed, length, *trace == 1, *outDir)
		printResult(res)
		if res.err != nil {
			code = 1
		}
	}
	os.Exit(code)
}

// printEnv stamps the report so two reports can be checked for comparability
// before they are compared.
func printEnv(outDir string, seed uint64, length time.Duration, traced bool) {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	fs := fsType(outDir)
	if fs == "tmpfs" {
		fmt.Fprintf(os.Stderr, "bench: %s is on tmpfs: fsync is free there, tcp3-durable-w8 is not comparable with a disk-backed report\n", outDir)
	}
	env := map[string]any{
		"git_revision": rev, "go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "storage_fs": fs, "seed": seed, "window_s": length.Seconds(), "traced": traced,
	}
	line, _ := json.Marshal(map[string]any{"env": env}) // a map of strings and numbers cannot fail
	fmt.Println(string(line))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// printResult prints the workload's metrics as a table and then as the one
// JSON object the benchmark contract asks for on the last line.
func printResult(res *result) {
	fmt.Printf("# %s seed=%d window=%s samples=%d attempted=%d failed=%d slice_runs_per_s=%.1f\n",
		res.workload, res.seed, res.window, res.samples, res.attempted, res.failed, res.rates)
	metrics := make(map[string]any, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.err = fmt.Errorf("%s: metric %s is %v", res.workload, m.name, v)
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", res.err)
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.err == nil, "attempted": attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

// benchmarkFile is the part of BENCHMARK.json the agreement mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs the set twice back to back and prints, per workload and
// end-to-end metric, both values, how much worse the second is than the first
// and the bound. It fails, as the driver does, if any second value is worse
// than the first by more than the bound.
func runAgree(set []*workload, seed uint64, length time.Duration, outDir string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -agree reads the bounds from BENCHMARK.json in the working directory:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	code := 0
	var rounds [2][]*result
	for round := range rounds {
		for _, w := range set {
			res := runWorkload(w, seed, length, false, outDir)
			printResult(res)
			if res.err != nil {
				code = 1
			}
			rounds[round] = append(rounds[round], res)
		}
	}
	fmt.Printf("# agreement, seed %d\n%-20s %-20s %12s %12s %8s %6s\n", seed, "workload", "metric", "first", "second", "worse", "bound")
	for i, w := range set {
		for _, m := range bf.EndToEnd {
			a, _ := rounds[0][i].get(m.Name)
			b, _ := rounds[1][i].get(m.Name)
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound {
				verdict, code = "  DISAGREE", 1
			}
			fmt.Printf("%-20s %-20s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
