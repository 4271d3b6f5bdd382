// Command perfbench is the repository benchmark: four closed-loop
// workloads driven through the public dana API and the public
// internal/server API, reporting end-to-end metrics on the host clock
// and the modeled clock, and per-layer metrics from a traced replay.
// README.md lists every metric, what it should move and why each
// workload exists.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload train-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Lines before it are human-readable and start with '#'.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	hostrt "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// gcPercent is the GOGC setting of every run.
const gcPercent = 50

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := hostrt.NumCPU()
	hostrt.GOMAXPROCS(nproc)
	// Collect when the heap has grown by half the live heap, not by
	// all of it as Go's default does: the heap's high-water mark, and
	// with it peak_rss_mb, then moves little with where the
	// collections fall.
	debug.SetGCPercent(gcPercent)
	// One host thread of work: on a VM whose few vCPUs share a host
	// with other guests, work spread over every vCPU measures the
	// neighbours as much as the program (train-hot's run-to-run spread
	// was about 0.2 at 2 workers on 2 vCPUs and below 0.1 at 1). The
	// other vCPUs are left to the collector.
	cfg := runConfig{seed: seed, seconds: seconds, traced: traced, workers: 1}

	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("# workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d workers=%d gogc=%d go=%s seconds=%s\n",
		w.name, seed, btoi(traced), nproc, hostrt.GOMAXPROCS(0), cfg.workers, gcPercent, hostrt.Version(), seconds)
	fmt.Printf("# passes: %d untraced, %d traced; ops per pass: %s\n",
		res.untraced.passes, res.traced.passes, res.opsPerPass)
	fmt.Printf("# ops (untraced): %s\n", res.untraced.opCounts())
	if traced {
		fmt.Printf("# ops (traced): %s\n", res.traced.opCounts())
	}
	fmt.Printf("# modeled digest: %016x\n", res.digest)
	e2e := endToEnd(&res.untraced, res.modeled)
	printMetrics("end-to-end, untraced passes", e2e, endToEndNames)
	var metrics map[string]metric
	if traced {
		printMetrics("end-to-end, traced passes (difference to the untraced passes = tracing overhead)",
			endToEnd(&res.traced, res.modeled), endToEndNames)
		metrics = res.layers.metrics()
		printMetrics("per-layer, traced passes", metrics, perLayerNames)
	} else {
		metrics = e2e
	}
	for _, note := range res.notes {
		fmt.Printf("# note: %s\n", note)
	}
	failures := append(append([]string(nil), res.untraced.failures...), res.traced.failures...)
	sort.Strings(failures)
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("# ... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Printf("# FAILED: %s\n", f)
	}

	attempted := res.untraced.attempted + res.traced.attempted
	failed := res.untraced.failed + res.traced.failed
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(title string, ms map[string]metric, order []string) {
	fmt.Printf("# %s:\n", title)
	for _, n := range order {
		m := ms[n]
		fmt.Printf("#   %-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
