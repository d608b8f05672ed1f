// Command thermbench is thermemu's benchmark. It runs seeded, generated
// thermemu-scenario v1 instances back to back through the public entry
// points (scenario.Parse → CoEmulation → core.Run over a ThermalHost.Serve
// link, or sweep.RunPoints for a grid), checks every output, and prints
// the end-to-end metrics. With --trace 1 it instead drives the same public
// calls itself, records a span around each call into a layer, and prints
// per-layer metrics.
//
// Run it through run.sh from the repository root:
//
//	bash thermbench/run.sh --workload hostlink-fine --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it start with '#'
// and describe the host, the build and the instances' digests.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts ops and their failures; every failure is logged to stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(what string, err error) {
	t.attempted++
	t.failed++
	fmt.Fprintf(os.Stderr, "thermbench: FAIL %s: %v\n", what, err)
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := flag.Int64("seed", 1, "seed for the generated instances")
	seconds := flag.Int("seconds", 30, "how long to measure")
	traceOn := flag.Int("trace", 0, "1 = traced run with per-layer metrics, 0 = timed run")
	out := flag.String("out", ".bench_build/trace", "directory for the traced run's span files")
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "thermbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	pl, err := generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	printEnv(*workload, *seed, *seconds, *traceOn)

	var t tally
	var metrics map[string]metric
	if *traceOn == 1 {
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d.csv", *workload, *seed))
		metrics, err = runTraced(pl, *seconds, &t, path)
	} else {
		metrics, err = runTimed(pl, *seconds, &t)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		os.Exit(1)
	}
	rep := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printEnv records what a result depends on besides the code: GOMAXPROCS,
// the CPU count and model, the Go version and the source tree.
func printEnv(workload string, seed int64, seconds, traceOn int) {
	env := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traceOn,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     treeHash("."),
	}
	b, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", b)
}

// cpuModel reads the CPU model name from the kernel, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies the commit under test by content: a SHA-256 over the
// paths and bytes of every file in the checkout outside hidden directories
// (the build output, VCS metadata).
// The benchmark runs in checkouts without git metadata, so this stands in
// for the commit id; two checkouts of one commit hash the same.
func treeHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:8])
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
