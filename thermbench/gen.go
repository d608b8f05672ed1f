package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload names accepted by --workload.
const (
	wlKernel   = "kernel"
	wlHostlink = "hostlink-fine"
	wlSweep    = "sweep-grid"
)

var workloadNames = []string{wlKernel, wlHostlink, wlSweep}

// Links a closed-loop instance can run over. Every closed loop ships its
// statistics to a ThermalHost.Serve peer, as the paper's emulator does over
// Ethernet; the kernel workloads use the in-process loopback transport, so
// the wire costs microseconds against windows of milliseconds.
const (
	linkLoopback = "loopback"
	linkTCP      = "tcp"
)

// instance is one generated scenario. The program sees only text; kind
// labels the family the seed drew it from.
type instance struct {
	kind string
	text string
}

// grid is one generated design-space sweep: the point scenarios and the
// warm-up prefix length shared by points of one platform.
type grid struct {
	points []instance
	warmup int
}

// plan is everything a run of one workload executes, made from the seed
// alone. A run repeats the round back to back; every repeat does the same
// work, so the rounds differ only by how fast the host ran them.
type plan struct {
	link  string
	round []instance
	grid  *grid // sweep-grid only; its round is the grid's points
	// small are the instances cross-checked against the signal-level
	// reference. They are held back from the round and never timed.
	small []string
}

// kind is one family of instances: a fixed platform and workload whose
// parameters are drawn from ranges of similar host cost.
type kind struct {
	name string
	draw func(r *rand.Rand) string
}

// between draws an integer in [lo, hi] in steps of step.
func between(r *rand.Rand, lo, hi, step int) int {
	return lo + step*r.Intn((hi-lo)/step+1)
}

// scaled returns work/size rounded to the nearest whole, at least 1: the
// repetition count that keeps size×iterations near a fixed cost.
func scaled(work, size int) int {
	n := (work + size/2) / size
	if n < 1 {
		return 1
	}
	return n
}

// scenarioText renders a thermemu-scenario v1 file. It sets only keys that
// describe the modelled design and run: platform, workload, thermal and tm.
func scenarioText(platform, workload, thermal [][2]string, policy string) string {
	var b strings.Builder
	b.WriteString("thermemu-scenario v1\n")
	section := func(name string, kvs [][2]string) {
		fmt.Fprintf(&b, "\n[%s]\n", name)
		for _, kv := range kvs {
			fmt.Fprintf(&b, "%s = %s\n", kv[0], kv[1])
		}
	}
	section("platform", platform)
	section("workload", workload)
	section("thermal", thermal)
	section("tm", [][2]string{{"policy", policy}})
	return b.String()
}

func kv(k string, v any) [2]string { return [2]string{k, fmt.Sprint(v)} }

// platformKV describes a platform of cores on the interconnect ic.
func platformKV(cores int, ic string) [][2]string {
	return [][2]string{kv("cores", cores), kv("ic", ic)}
}

// kernelThermal is the kernel workloads' thermal setting: 1 ms windows on
// the default 28-cell grid, so the thermal side costs little per window.
var kernelThermal = [][2]string{kv("window-ms", 1)}

// Every kernel instance costs some 15–40 ms of host time on an uncontended
// 2-vCPU Intel Xeon, so each repeats about a hundred times in a run, and
// the fastest repeat of each (see best in timed.go) lands in one of the
// host's brief uncontended moments.

// computeKinds are Table 3-class compute kernels with TM off: the matrix
// dimension spans the 4 KB modelled D-cache (three n×n word matrices are
// 1.7 KB at n=12 and 4.3 KB at n=19), and iterations scale inversely with
// the work per pass so every draw costs about the same.
var computeKinds = []kind{
	{"matrix-opb-8c", func(r *rand.Rand) string {
		n := between(r, 12, 19, 1)
		return scenarioText(platformKV(8, "opb"),
			[][2]string{kv("name", "matrix"), kv("n", n), kv("iters", scaled(13800, n*n*n))},
			kernelThermal, "none")
	}},
	{"dithering-opb-4c", func(r *rand.Rand) string {
		return scenarioText(platformKV(4, "opb"),
			[][2]string{kv("name", "dithering"), kv("size", between(r, 72, 76, 4))},
			kernelThermal, "none")
	}},
	{"dithering-noc-4c", func(r *rand.Rand) string {
		return scenarioText(platformKV(4, "noc:mesh:2x2"),
			[][2]string{kv("name", "dithering"), kv("size", between(r, 52, 56, 4))},
			kernelThermal, "none")
	}},
	{"fir-opb-4c", func(r *rand.Rand) string {
		taps, words := between(r, 8, 16, 1), between(r, 256, 512, 32)
		return scenarioText(platformKV(4, "opb"),
			[][2]string{kv("name", "fir"), kv("n", taps), kv("words", words), kv("iters", scaled(26000, taps*words))},
			kernelThermal, "none")
	}},
	{"fir-noc-4c", func(r *rand.Rand) string {
		taps, words := between(r, 8, 16, 1), between(r, 256, 512, 32)
		return scenarioText(platformKV(4, "noc:mesh:2x2"),
			[][2]string{kv("name", "fir"), kv("n", taps), kv("words", words), kv("iters", scaled(18000, taps*words))},
			kernelThermal, "none")
	}},
}

// stallKinds are stall- and sync-bound kernels with TM off: shared-stream
// reads on PLB, a histogram under one contended global spinlock, and a
// mailbox pipeline on a ring NoC. The same emu layer runs as for the
// compute kinds, but the time goes to skip-ahead and interconnect
// arbitration instead of dispatch. Stream lengths set the cost.
var stallKinds = []kind{
	{"membound-plb-4c", func(r *rand.Rand) string {
		words := between(r, 512, 2048, 64)
		return scenarioText(platformKV(4, "plb"),
			[][2]string{kv("name", "membound"), kv("words", words), kv("iters", scaled(16384, words))},
			kernelThermal, "none")
	}},
	{"histogram-opb-4c", func(r *rand.Rand) string {
		return scenarioText(platformKV(4, "opb"),
			[][2]string{kv("name", "histogram"), kv("n", between(r, 8, 32, 1)), kv("words", between(r, 9216, 11264, 512))},
			kernelThermal, "none")
	}},
	{"pipeline-noc-4c", func(r *rand.Rand) string {
		return scenarioText(platformKV(4, "noc:ring:4"),
			[][2]string{kv("name", "pipeline"), kv("words", between(r, 3072, 3584, 128))},
			kernelThermal, "none")
	}},
}

// kernelKinds are the kernel workload's kinds: every compute and every
// stall kind. Both run the same emu layer; the traced run reports emu time
// per cycle for each group, so a kernel change that helps compute code and
// hurts stall code shows as the two moving apart.
var kernelKinds = append(append([]kind(nil), computeKinds...), stallKinds...)

// hostlinkKinds are Matrix-TM under threshold DFS on the Figure 6 ring NoC
// with fine 2 µs windows and a grid of a few hundred cells: emulation per
// window is small, so the thermal solve and the link set the rate. The
// policy runs every window, but an instance is short (some 50 ms of host
// time, about 60 windows) and ends near 331 K, below the 350 K threshold:
// heating through it takes three times the windows, and instances that
// long seldom fit in one of the host's brief quiet moments (see best in
// timed.go). The DFS path runs on sweep-grid, whose threshold points fire
// it some 26 times each. The solve's cost rises faster than the cell
// count, so there is one kind per band of 20 cells from 200 to 300: every
// round spans the whole range, and the seed moves a round's cost little.
var hostlinkKinds = func() []kind {
	var kinds []kind
	for lo := 200; lo < 300; lo += 20 {
		kinds = append(kinds, kind{fmt.Sprintf("matrix-tm-noc-4c/%d-cells", lo), func(r *rand.Rand) string {
			return scenarioText(platformKV(4, "noc:ring:4"),
				[][2]string{kv("name", "matrix-tm"), kv("n", 8), kv("iters", 12)},
				[][2]string{kv("cells", between(r, lo, lo+16, 4)), kv("window-ms", 0.002), kv("timescale", 10000)},
				"threshold-dfs")
		}})
	}
	return kinds
}()

// sweep-grid axes: the noc-grid study (floorplan × policy) over a sustained
// Matrix-TM base far longer than the committed example's.
var (
	sweepFloorplans = []string{"arm11", "arm7"}
	sweepPolicies   = []string{"none", "threshold-dfs", "proportional-dfs"}
)

const sweepWarmupWindows = 12

// generate builds the plan of a workload from the seed. The same seed gives
// byte-identical scenario text.
func generate(workload string, seed int64) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	pl := &plan{link: linkLoopback}
	switch workload {
	case wlKernel:
		pl.round = drawRound(r, kernelKinds, 2)
		pl.small = []string{
			scenarioText(platformKV(2, "opb"),
				[][2]string{kv("name", "matrix"), kv("n", between(r, 6, 8, 1)), kv("iters", 1)},
				kernelThermal, "none"),
			scenarioText(platformKV(2, "opb"),
				[][2]string{kv("name", "histogram"), kv("n", between(r, 4, 8, 1)), kv("words", between(r, 32, 64, 2))},
				kernelThermal, "none"),
		}
	case wlHostlink:
		pl.link = linkTCP
		pl.round = drawRound(r, hostlinkKinds, 1)
		pl.small = []string{scenarioText(platformKV(4, "noc:ring:4"),
			[][2]string{kv("name", "matrix-tm"), kv("n", 4), kv("iters", between(r, 1, 2, 1))},
			[][2]string{kv("window-ms", 0.002)}, "none")}
	case wlSweep:
		iters := between(r, 140, 148, 2)
		g := &grid{warmup: sweepWarmupWindows}
		for _, fp := range sweepFloorplans {
			for _, pol := range sweepPolicies {
				g.points = append(g.points, instance{
					kind: fp + "/" + pol,
					text: scenarioText(platformKV(4, "noc:ring:4"),
						[][2]string{kv("name", "matrix-tm"), kv("n", 8), kv("iters", iters)},
						[][2]string{kv("floorplan", fp), kv("window-ms", 0.01), kv("timescale", 12000)},
						pol),
				})
			}
		}
		pl.grid = g
		pl.round = g.points
		pl.small = []string{scenarioText(platformKV(4, "noc:ring:4"),
			[][2]string{kv("name", "matrix-tm"), kv("n", 4), kv("iters", between(r, 1, 2, 1))},
			[][2]string{kv("window-ms", 0.01)}, "none")}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames, " | "))
	}
	return pl, nil
}

// drawRound draws perKind instances of every kind, in a seeded order.
func drawRound(r *rand.Rand, kinds []kind, perKind int) []instance {
	var round []instance
	for _, k := range kinds {
		for j := 0; j < perKind; j++ {
			round = append(round, instance{kind: k.name, text: k.draw(r)})
		}
	}
	r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}
