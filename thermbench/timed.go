package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"thermemu/internal/core"
	"thermemu/internal/golden"
	"thermemu/internal/mparm"
	"thermemu/internal/scenario"
	"thermemu/internal/sweep"
)

// runTimed measures the end-to-end metrics: rounds of instances (or grids)
// back to back for the given number of seconds, each op checked, with the
// set-up of each round's instances timed before it. No wrapper sits on any
// call.
func runTimed(pl *plan, seconds int, t *tally) (map[string]metric, error) {
	var l *link
	if pl.grid == nil {
		var err error
		if l, err = newLink(pl.link); err != nil {
			return nil, err
		}
		defer l.close()
	}
	// A unit is an instance of the round, or the whole grid.
	b := best{units: make([]unit, len(pl.round))}
	if pl.grid != nil {
		b.units = make([]unit, 1)
	}
	var err error
	if pl.grid != nil {
		err = timedGrids(pl, seconds, t, &b)
	} else {
		err = timedRounds(pl, l, seconds, t, &b)
	}
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	// Correctness against the signal-level reference, after the measured
	// part so its memory and time stay out of the figures.
	for _, text := range pl.small {
		if err := mparmCheck(text); err != nil {
			t.fail("mparm cross-check", err)
		} else {
			t.ok()
		}
	}
	if !b.complete() {
		return nil, fmt.Errorf("no repeat of every unit completed with a sampled window")
	}
	b.print(t.attempted)
	wall, cycles, windows, ops := b.sums()
	p50, p90 := b.windowMs()
	return map[string]metric{
		"emu_mcycles_per_s": {float64(cycles) / wall / 1e6, "Mcycles/s"},
		"windows_per_s":     {float64(windows) / wall, "1/s"},
		"ops_per_s":         {float64(ops) / wall, "1/s"},
		"window_ms_p50":     {p50, "ms"},
		"window_ms_p90":     {p90, "ms"},
		"setup_s":           {median(b.setup), "s"},
		"peak_rss_mb":       {rss, "MB"},
	}, nil
}

// best keeps the fastest repeat of every unit of a run: an instance of the
// round, or on sweep-grid the whole grid. Every repeat of a unit does the
// same work, and other tenants of a shared host only ever add time to it:
// on a 2-vCPU host they slowed the kernel round by up to 2.3x, in spells of
// seconds to minutes, and left it uncontended for a few percent of the
// time. The fastest repeat of each unit is its cost on a quiet host. The
// figures are those of the round assembled from the fastest repeats.
type best struct {
	units []unit
	// setup holds one set-up time per instance set up, in seconds.
	setup []float64
	// samples counts the window times the percentiles rest on.
	samples int
}

// unit is what one repeat of a unit did and how long its fastest repeat
// took. p50 and p90 are the least 50th and 90th percentile window times,
// in ms, over its repeats.
type unit struct {
	kind          string
	walls         []float64 // seconds, every repeat
	cycles        uint64
	windows, ops  int
	p50, p90      float64
	windowSampled bool
}

// repeat is one timed repeat of a unit.
type repeat struct {
	wall          time.Duration
	cycles        uint64
	windows, ops  int
	p50, p90      float64 // ms
	windowSamples int
}

func (b *best) add(i int, kind string, r repeat) {
	u := &b.units[i]
	u.kind = kind
	u.walls = append(u.walls, r.wall.Seconds())
	u.cycles, u.windows, u.ops = r.cycles, r.windows, r.ops
	if r.windowSamples > 0 {
		if !u.windowSampled || r.p50 < u.p50 {
			u.p50 = r.p50
		}
		if !u.windowSampled || r.p90 < u.p90 {
			u.p90 = r.p90
		}
		u.windowSampled = true
		b.samples += r.windowSamples
	}
}

// complete reports whether every unit ran at least once and some unit
// sampled a window.
func (b *best) complete() bool {
	sampled := false
	for _, u := range b.units {
		if len(u.walls) == 0 {
			return false
		}
		sampled = sampled || u.windowSampled
	}
	return sampled
}

// sums adds up the fastest repeats: wall seconds, cycles, windows and ops.
func (b *best) sums() (wall float64, cycles uint64, windows, ops int) {
	for _, u := range b.units {
		wall += slices.Min(u.walls)
		cycles += u.cycles
		windows += u.windows
		ops += u.ops
	}
	return wall, cycles, windows, ops
}

// windowMs is the mean over the units that sampled windows of their least
// 50th and 90th percentile window times. Instance kinds differ in window
// time; a mean over them moves smoothly with the parameters the seed
// draws, where a median jumps from one kind to another.
func (b *best) windowMs() (p50, p90 float64) {
	var a50, a90 []float64
	for _, u := range b.units {
		if u.windowSampled {
			a50 = append(a50, u.p50)
			a90 = append(a90, u.p90)
		}
	}
	return mean(a50), mean(a90)
}

// print records the run on # lines: repeats, samples, how much slower than
// its fastest repeat a unit's median repeat ran (the host's contention),
// and each unit's emulated Mcycles per second at its fastest.
func (b *best) print(ops int) {
	var slow []float64
	var kinds []string
	for _, u := range b.units {
		fastest := slices.Min(u.walls)
		slow = append(slow, median(u.walls)/fastest)
		kinds = append(kinds, fmt.Sprintf("%s=%.4g", u.kind, float64(u.cycles)/fastest/1e6))
	}
	fmt.Printf("# repeats per unit %d, ops %d, window samples %d, median repeat over fastest %.3g\n",
		len(b.units[0].walls), ops, b.samples, median(slow))
	fmt.Printf("# fastest Mcycles/s by unit: %s\n", strings.Join(kinds, " "))
}

// setupRound times the set-up of every instance of a round, before the
// round runs: spread over the whole run, the samples see the same host as
// the rounds do.
func (b *best) setupRound(insts []instance, l *link) error {
	for _, inst := range insts {
		d, err := measureSetup(inst, l)
		if err != nil {
			return fmt.Errorf("set-up of %s: %w", inst.kind, err)
		}
		b.setup = append(b.setup, d.Seconds())
	}
	return nil
}

// digestBook checks that every repeat of an instance reproduces the digest
// of its first run.
type digestBook map[string]string

func (b digestBook) check(text, digest string) error {
	if want, ok := b[text]; ok && want != digest {
		return fmt.Errorf("digest %s, earlier run of the same scenario gave %s", digest, want)
	}
	b[text] = digest
	return nil
}

// timedRounds runs the plan's round back to back until the time is up,
// finishing the round in progress. One untimed op first warms the process.
func timedRounds(pl *plan, l *link, seconds int, t *tally, b *best) error {
	book := digestBook{}
	first := pl.round[0]
	res, err := runOp(first, l, false)
	if err != nil {
		t.fail(first.kind, err)
	} else {
		t.ok()
		if err := book.check(first.text, res.digest); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		if err := b.setupRound(pl.round, l); err != nil {
			return err
		}
		for i, inst := range pl.round {
			res, err := runOp(inst, l, true)
			if err == nil {
				err = book.check(inst.text, res.digest)
			}
			if err != nil {
				t.fail(inst.kind, err)
				continue
			}
			t.ok()
			r := repeat{wall: res.wall, cycles: res.cycles, windows: res.windows, ops: 1, windowSamples: len(res.windowMs)}
			if r.windowSamples > 0 {
				r.p50, r.p90 = quantile(res.windowMs, 0.5), quantile(res.windowMs, 0.9)
			}
			b.add(i, inst.kind, r)
		}
	}
	return nil
}

// gridPoints parses the grid's scenarios into sweep points.
func gridPoints(g *grid) ([]sweep.Point, error) {
	points := make([]sweep.Point, len(g.points))
	for i, inst := range g.points {
		s, err := scenario.Parse(inst.text)
		if err != nil {
			return nil, fmt.Errorf("point %s: %w", inst.kind, err)
		}
		points[i] = sweep.Point{Index: i, Name: inst.kind, Scenario: s}
	}
	return points, nil
}

// runGrid runs the grid once on nproc in-process workers with warm-up
// prefix sharing, as cmd/sweep does.
func runGrid(g *grid) (*sweep.Outcome, time.Duration, error) {
	start := time.Now()
	points, err := gridPoints(g)
	if err != nil {
		return nil, 0, err
	}
	out, err := sweep.RunPoints(wlSweep, points, g.warmup, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
	return out, time.Since(start), err
}

// checkGrid checks every point of an outcome: it ran to completion and its
// digest matches every earlier run of the same point. It returns the
// failures by point.
func checkGrid(g *grid, out *sweep.Outcome, book digestBook) map[int]error {
	bad := map[int]error{}
	if len(out.Results) != len(g.points) {
		for i := range g.points {
			bad[i] = fmt.Errorf("grid returned %d results for %d points", len(out.Results), len(g.points))
		}
		return bad
	}
	for i, r := range out.Results {
		switch {
		case r.Partial || !r.Done:
			bad[i] = fmt.Errorf("point did not complete (partial=%v done=%v)", r.Partial, r.Done)
		default:
			if err := book.check(g.points[i].text, r.Digest); err != nil {
				bad[i] = err
			}
		}
	}
	return bad
}

// timedGrids runs the grid back to back until the time is up; each grid is
// a round and each point an op. Afterwards every TM-off point's digest is
// checked against a standalone run of its scenario.
func timedGrids(pl *plan, seconds int, t *tally, b *best) error {
	g := pl.grid
	book := digestBook{}
	runs := map[int]int{} // point -> completed runs, for failures found later
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		if err := b.setupRound(g.points, nil); err != nil {
			return err
		}
		out, wall, err := runGrid(g)
		if err != nil {
			for _, p := range g.points {
				t.fail(p.kind, err)
			}
			continue
		}
		bad := checkGrid(g, out, book)
		// A point's windows run inside its worker; only their mean time is
		// observable, and it stands for both percentiles.
		rp := repeat{wall: wall}
		var windowMs []float64
		for i, r := range out.Results {
			if err := bad[i]; err != nil {
				t.fail(g.points[i].kind, err)
				continue
			}
			t.ok()
			runs[i]++
			rp.cycles += r.Cycles
			rp.windows += r.Windows
			rp.ops++
			if r.Windows > 0 {
				windowMs = append(windowMs, r.WallS*1e3/float64(r.Windows))
			}
		}
		// Only a grid whose every point passed stands for the grid's cost.
		if len(bad) == 0 {
			rp.p50, rp.p90 = mean(windowMs), mean(windowMs)
			rp.windowSamples = len(windowMs)
			b.add(0, "grid", rp)
		}
	}
	for i, p := range g.points {
		if !isTMOff(p.text) || runs[i] == 0 {
			continue
		}
		digest, _, err := standaloneDigest(p.text)
		if err == nil && digest != book[p.text] {
			err = fmt.Errorf("sweep digest %s, standalone run %s", book[p.text], digest)
		}
		if err != nil {
			// Every run of the point carried the wrong digest.
			t.failed += runs[i]
			t.fail(p.kind+" standalone", err)
		} else {
			t.ok()
		}
	}
	return nil
}

func isTMOff(text string) bool {
	s, err := scenario.Parse(text)
	return err == nil && s.Policy == "none"
}

// standaloneDigest runs a scenario on its own through core.Run with the
// in-process thermal host, as cmd/thermemu -scenario does.
func standaloneDigest(text string) (string, int, error) {
	_, cfg, err := build(text)
	if err != nil {
		return "", 0, err
	}
	cfg.DiscardSamples = true
	windows := 0
	run, err := core.Run(cfg, func(core.Sample) { windows++ })
	if err != nil {
		return "", 0, err
	}
	if err := checkRun(run); err != nil {
		return "", 0, err
	}
	return cfg.Golden.Hex(), windows, nil
}

// mparmCheck runs a small instance on the emulator kernel and on the
// signal-level reference of internal/mparm: the cycle counts and final
// architectural state digests must be equal, the statistics the reference
// recovers from its signals must equal the emulator's counters, and both
// must pass the workload's Verify.
func mparmCheck(text string) error {
	_, cfg, err := build(text)
	if err != nil {
		return err
	}
	const limit = 50_000_000
	fast, _, err := prepare(cfg)
	if err != nil {
		return err
	}
	fc, fdone := fast.Run(limit)
	slowP, _, err := prepare(cfg)
	if err != nil {
		return err
	}
	k := mparm.New(slowP)
	sc, sdone := k.Run(limit)
	switch {
	case !fdone || !sdone:
		return fmt.Errorf("did not halt within %d cycles (emu %v, mparm %v)", limit, fdone, sdone)
	case fast.Fault() != nil:
		return fast.Fault()
	case slowP.Fault() != nil:
		return slowP.Fault()
	case fc != sc:
		return fmt.Errorf("emulator ran %d cycles, mparm reference %d", fc, sc)
	}
	if err := k.VerifyObserved(); err != nil {
		return err
	}
	if cfg.Workload.Verify != nil {
		if err := cfg.Workload.Verify(fast.ReadSharedWord); err != nil {
			return err
		}
		if err := cfg.Workload.Verify(slowP.ReadSharedWord); err != nil {
			return err
		}
	}
	ft, st := golden.New(), golden.New()
	fast.DigestInto(ft)
	slowP.DigestInto(st)
	if ft.Hex() != st.Hex() {
		return fmt.Errorf("final state digest %s, mparm reference %s", ft.Hex(), st.Hex())
	}
	fmt.Printf("# mparm cross-check: %d cycles on both kernels, %d delta cycles\n", fc, k.Stats().DeltaCycles)
	return nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median and quantile use linear interpolation between order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
