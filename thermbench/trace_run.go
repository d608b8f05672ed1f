package main

import (
	"fmt"
	"runtime"
	"time"

	"thermemu/internal/checkpoint"
	"thermemu/internal/scenario"
	"thermemu/internal/sweep"
)

// layerAcc accumulates the traced run's per-layer figures over whole passes
// of the plan. Simulated counts come from the first pass; every later pass
// must repeat them exactly.
type layerAcc struct {
	passes int
	selfNs [nLayers]int64
	// winNs is selfNs restricted to spans inside sampling windows.
	winNs [nLayers]int64
	// Simulated counts of the first pass.
	counts, firstPass simCounts
	windows           int
	rttNs, wireNs     []float64
	solves            int
	solveNs           int64
	frames, bytes     uint64
	retries           uint64
	buildS            []float64
	// Reference (untraced) core.Run figures for the same instances.
	refWindows, refAllocs, refBytes uint64
	refWallNs, tracedWallNs         int64
	// Checkpoint and sweep layers.
	cutS, resumeS, ckBytes              []float64
	pointS, warmupS                     []float64
	busyShare                           []float64
	steals, duplicates, points, results int
	maxGapNs                            int64
	// emu self time and emulated cycles of the kernel workload's compute
	// and stall kinds, over all passes, indexed by kind group.
	groupEmuNs, groupCycles [2]uint64
}

// Kind groups of the kernel workload.
const (
	groupCompute = iota
	groupStall
)

// kindGroup reports whether kind is one of the compute or the stall kinds.
func kindGroup(kind string) (int, bool) {
	for _, k := range computeKinds {
		if k.name == kind {
			return groupCompute, true
		}
	}
	for _, k := range stallKinds {
		if k.name == kind {
			return groupStall, true
		}
	}
	return 0, false
}

// simCounts are the simulated counts of a set of instances. They depend only
// on the generated inputs and the modelled design.
type simCounts struct {
	cycles, coreCycles, instructions, stall uint64
	iHits, iAcc, dHits, dAcc                uint64
	icTxn, icWait                           uint64
	coreSteps, skipped                      uint64
	dfs                                     uint64
}

func (c *simCounts) add(r *tracedResult) {
	c.cycles += r.cycles
	for _, cs := range r.snap.Cores {
		c.coreCycles += cs.Cycles()
		c.instructions += cs.Instructions
		c.stall += cs.StallCycles
	}
	for _, s := range r.snap.ICaches {
		c.iHits += s.Hits
		c.iAcc += s.Accesses()
	}
	for _, s := range r.snap.DCaches {
		c.dHits += s.Hits
		c.dAcc += s.Accesses()
	}
	if b := r.snap.Bus; b != nil {
		c.icTxn += b.Transactions
		c.icWait += b.WaitCycles
	}
	if n := r.snap.Noc; n != nil {
		c.icTxn += n.Packets
		c.icWait += n.WaitCycles
	}
	c.coreSteps += r.skip.CoreSteps
	c.skipped += r.skip.SkippedCycles
	c.dfs += uint64(r.dfs)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addTraced folds one traced instance into the totals.
func (a *layerAcc) addTraced(tc *tracer, from int, kind string, r *tracedResult) {
	g, grouped := kindGroup(kind)
	for _, s := range tc.spans[from:] {
		if grouped && s.layer == lEmu {
			a.groupEmuNs[g] += uint64(s.end - s.start)
		}
		if s.layer != lWindow && s.layer != lInstance {
			a.selfNs[s.layer] += s.end - s.start
			if tc.spans[s.parent].layer == lWindow {
				a.winNs[s.layer] += s.end - s.start
			}
		}
		if s.layer == lInstance {
			a.tracedWallNs += s.end - s.start
		}
		if s.layer == lScenario {
			a.buildS = append(a.buildS, float64(s.end-s.start)/1e9)
		}
	}
	// The host solve sits inside the device's link span: the link's own
	// time is what remains.
	for i := range r.rttNs {
		a.selfNs[lEtherlink] -= r.solveNs[i]
		a.winNs[lEtherlink] -= r.solveNs[i]
		a.solveNs += r.solveNs[i]
		a.rttNs = append(a.rttNs, float64(r.rttNs[i]))
		a.wireNs = append(a.wireNs, float64(r.rttNs[i]-r.solveNs[i]))
	}
	a.solves += len(r.solveNs)
	a.windows += r.windows
	a.frames += r.frames
	a.bytes += r.bytes
	a.retries += r.retries
	a.maxGapNs = max(a.maxGapNs, r.maxGapNs)
	a.counts.add(r)
	if grouped {
		a.groupCycles[g] += r.cycles
	}
}

// reference runs the instance untimed through core.Run and records its
// wall time and allocations; it returns the digest the traced loop must
// reproduce.
func (a *layerAcc) reference(inst instance, l *link) (*opResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := runOp(inst, l, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	a.refWindows += uint64(res.windows)
	a.refAllocs += after.Mallocs - before.Mallocs
	a.refBytes += after.TotalAlloc - before.TotalAlloc
	a.refWallNs += res.wall.Nanoseconds()
	return res, nil
}

// traceInstance runs the untraced reference and the traced loop of one
// instance and checks they agree.
func (a *layerAcc) traceInstance(tc *tracer, inst instance, l *link, t *tally) (*opResult, *tracedResult) {
	ref, err := a.reference(inst, l)
	if err != nil {
		t.fail(inst.kind, err)
		return nil, nil
	}
	from := len(tc.spans)
	tr, err := tracedLoop(tc, inst, l)
	switch {
	case err != nil:
	case tr.digest != ref.digest:
		err = fmt.Errorf("traced loop digest %s, core.Run digest %s", tr.digest, ref.digest)
	case tr.maxTempK != ref.maxTempK:
		err = fmt.Errorf("traced loop peak %v K, core.Run peak %v K", tr.maxTempK, ref.maxTempK)
	case tr.maxGapNs > nestTolNs:
		err = fmt.Errorf("a host solve sticks %d ns out of its link span (tolerance %d ns)", tr.maxGapNs, nestTolNs)
	}
	if err != nil {
		t.fail(inst.kind+" traced", err)
		return ref, nil
	}
	t.ok()
	a.addTraced(tc, from, inst.kind, tr)
	return ref, tr
}

// runTraced is the traced run: whole passes over the plan until the time
// is up, each instance run untraced through core.Run and then through the
// traced loop. The spans are written to path at the end.
func runTraced(pl *plan, seconds int, t *tally, path string) (map[string]metric, error) {
	l, err := newLink(pl.link)
	if err != nil {
		return nil, err
	}
	defer l.close()
	tc := newTracer()
	a := &layerAcc{}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for a.passes == 0 || time.Now().Before(deadline) {
		a.counts = simCounts{}
		if pl.grid != nil {
			err = a.tracedGridPass(tc, pl.grid, l, t)
		} else {
			err = a.tracedPass(tc, pl, l, t)
		}
		if err != nil {
			return nil, err
		}
		if a.passes == 0 {
			a.firstPass = a.counts
		} else if a.counts != a.firstPass {
			t.fail("simulated counts", fmt.Errorf("pass %d counted %+v, first pass %+v", a.passes+1, a.counts, a.firstPass))
		}
		a.passes++
	}
	if err := tc.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if a.windows == 0 {
		return nil, fmt.Errorf("no traced window completed")
	}
	printShares(a)
	fmt.Printf("# spans: %d written to %s\n", len(tc.spans), path)
	return a.metrics(), nil
}

// tracedPass traces every instance of the plan once, then checks that a
// resumed checkpoint reproduces the digest of an uninterrupted run.
func (a *layerAcc) tracedPass(tc *tracer, pl *plan, l *link, t *tally) error {
	var longest instance
	most := 0
	for _, inst := range pl.round {
		ref, tr := a.traceInstance(tc, inst, l, t)
		if tr != nil {
			if a.passes == 0 {
				printDigest(inst, tr)
			}
			if ref.windows > most {
				longest, most = inst, ref.windows
			}
		}
	}
	if most < 2 {
		t.fail("resume check", fmt.Errorf("no instance ran two windows to cut a checkpoint in"))
		return nil
	}
	a.resumeCheck(longest, t)
	return nil
}

// resumeCheck cuts the instance's TM-off run at a window boundary with
// sweep.CutWarmup and finishes it with sweep.RunPoint from that checkpoint,
// a one-point grid on one worker. The resumed run must end on the digest of
// the uninterrupted run.
func (a *layerAcc) resumeCheck(inst instance, t *tally) {
	s, err := scenario.Parse(inst.text)
	if err != nil {
		t.fail("resume check", err)
		return
	}
	s.Policy = "none"
	want, windows, err := standaloneDigest(s.Render())
	if err == nil && windows < 2 {
		err = fmt.Errorf("%d windows: nothing to cut", windows)
	}
	if err != nil {
		t.fail("resume check reference", err)
		return
	}
	c0 := time.Now()
	ck, err := sweep.CutWarmup(s, windows/2)
	cut := time.Since(c0)
	if err != nil {
		t.fail("resume check cut", err)
		return
	}
	if err := a.timeResume(s, ck); err != nil {
		t.fail("resume check restore", err)
		return
	}
	p0 := time.Now()
	res, err := sweep.RunPoint(s, ck)
	point := time.Since(p0)
	if err == nil && res.Digest != want {
		err = fmt.Errorf("resumed digest %s, uninterrupted %s", res.Digest, want)
	}
	if err != nil {
		t.fail("resume check", err)
		return
	}
	t.ok()
	a.cutS = append(a.cutS, cut.Seconds())
	a.warmupS = append(a.warmupS, cut.Seconds())
	a.ckBytes = append(a.ckBytes, float64(len(ck)))
	a.pointS = append(a.pointS, point.Seconds())
	a.busyShare = append(a.busyShare, point.Seconds()/(cut+point).Seconds())
	a.points++
	a.results++
}

// timeResume times the restore sweep.RunPoint performs before its first
// window: decode the checkpoint, apply it to a freshly loaded platform and
// restore the thermal model.
func (a *layerAcc) timeResume(s *scenario.Scenario, data []byte) error {
	cfg, err := s.CoEmulation()
	if err != nil {
		return err
	}
	p, _, err := prepare(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	ck, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}
	if err := ck.Apply(p); err != nil {
		return err
	}
	if ck.Loop != nil && ck.Loop.Thermal != nil {
		if err := cfg.Host.Model.RestoreState(*ck.Loop.Thermal); err != nil {
			return err
		}
	}
	a.resumeS = append(a.resumeS, time.Since(start).Seconds())
	return nil
}

// tracedGridPass runs the grid once with sweep.RunPoints, times the
// checkpoint cut and restore of every warm-up group, and traces the
// standalone run of every TM-off point, whose digest must equal both the
// core.Run reference and the point's digest in the grid.
func (a *layerAcc) tracedGridPass(tc *tracer, g *grid, l *link, t *tally) error {
	out, wall, err := runGrid(g)
	if err != nil {
		for _, p := range g.points {
			t.fail(p.kind, err)
		}
		return nil
	}
	bad := checkGrid(g, out, digestBook{})
	var busy float64
	for i, r := range out.Results {
		if err := bad[i]; err != nil {
			t.fail(g.points[i].kind, err)
			continue
		}
		t.ok()
		a.pointS = append(a.pointS, r.WallS)
		busy += r.WallS
	}
	a.busyShare = append(a.busyShare, busy/(float64(out.Workers)*wall.Seconds()))
	a.warmupS = append(a.warmupS, out.WarmupWallS)
	a.steals += out.Steals
	a.duplicates += out.Duplicates
	a.points += len(out.Results)
	a.results += len(out.Results) + out.Duplicates

	points, err := gridPoints(g)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, p := range points {
		key := p.WarmupKey()
		if !seen[key] {
			seen[key] = true
			start := time.Now()
			ck, err := sweep.CutWarmup(p.Scenario, g.warmup)
			if err != nil {
				t.fail(g.points[i].kind+" cut", err)
				continue
			}
			a.cutS = append(a.cutS, time.Since(start).Seconds())
			a.ckBytes = append(a.ckBytes, float64(len(ck)))
			if err := a.timeResume(p.Scenario, ck); err != nil {
				t.fail(g.points[i].kind+" restore", err)
			}
		}
		if p.Scenario.Policy != "none" || bad[i] != nil {
			continue
		}
		_, tr := a.traceInstance(tc, g.points[i], l, t)
		if tr == nil {
			continue
		}
		if tr.digest != out.Results[i].Digest {
			t.fail(g.points[i].kind+" standalone", fmt.Errorf("grid digest %s, standalone %s", out.Results[i].Digest, tr.digest))
		}
		if a.passes == 0 {
			printDigest(g.points[i], tr)
		}
	}
	return nil
}

// printDigest reports an instance's digest next to its simulated counts, so
// a change to either shows.
func printDigest(inst instance, r *tracedResult) {
	var c simCounts
	c.add(r)
	fmt.Printf("# digest %s %s cycles=%d windows=%d ipc=%.6f icache_hit=%.6f dcache_hit=%.6f ic_txn=%d ic_wait=%d dfs=%d\n",
		inst.kind, r.digest, r.cycles, r.windows, ratio(c.instructions, c.coreCycles),
		ratio(c.iHits, c.iAcc), ratio(c.dHits, c.dAcc), c.icTxn, c.icWait, r.dfs)
}

// windowLayers are the layers whose self times make up a window's wall time.
var windowLayers = []int{lEmu, lGolden, lPower, lEtherlink, lThermal, lTM, lCore}

// windowShare is a layer's share of the traced windows' wall time.
func (a *layerAcc) windowShare(l int) float64 {
	var wall int64
	for _, x := range windowLayers {
		wall += a.winNs[x]
	}
	return float64(a.winNs[l]) / float64(wall)
}

// printShares reports how the traced windows' wall time splits by layer.
func printShares(a *layerAcc) {
	fmt.Printf("# window wall split over %d windows:", a.windows)
	for _, l := range windowLayers {
		fmt.Printf(" %s=%.2f%%", layerNames[l], 100*a.windowShare(l))
	}
	fmt.Printf(" (host solves nest in their link spans within %d ns; worst %d ns)\n", nestTolNs, a.maxGapNs)
}

// metrics renders the per-layer metrics. Times and counts are per pass.
func (a *layerAcc) metrics() map[string]metric {
	per := func(ns int64) float64 { return float64(ns) / 1e9 / float64(a.passes) }
	c := a.firstPass
	m := map[string]metric{
		"scenario.build_s":          {median(a.buildS), "s"},
		"emu.self_s":                {per(a.selfNs[lEmu]), "s"},
		"emu.ns_per_cycle":          {float64(a.selfNs[lEmu]) / float64(a.passes) / float64(c.cycles), "ns"},
		"emu.compute_ns_per_cycle":  {ratio(a.groupEmuNs[groupCompute], a.groupCycles[groupCompute]), "ns"},
		"emu.stall_ns_per_cycle":    {ratio(a.groupEmuNs[groupStall], a.groupCycles[groupStall]), "ns"},
		"emu.core_steps":            {float64(c.coreSteps), "count"},
		"emu.skip_ratio":            {ratio(c.skipped, c.coreCycles), "ratio"},
		"emu.window_share":          {a.windowShare(lEmu), "ratio"},
		"cpu.ipc":                   {ratio(c.instructions, c.coreCycles), "ratio"},
		"cpu.stall_share":           {ratio(c.stall, c.coreCycles), "ratio"},
		"mem.icache_hit_ratio":      {ratio(c.iHits, c.iAcc), "ratio"},
		"mem.dcache_hit_ratio":      {ratio(c.dHits, c.dAcc), "ratio"},
		"ic.transactions":           {float64(c.icTxn), "count"},
		"ic.wait_cycles":            {float64(c.icWait), "count"},
		"thermal.self_s":            {per(a.selfNs[lThermal]), "s"},
		"thermal.us_per_solve":      {float64(a.solveNs) / 1e3 / float64(a.solves), "us"},
		"thermal.window_share":      {a.windowShare(lThermal), "ratio"},
		"etherlink.wait_s":          {per(a.selfNs[lEtherlink]), "s"},
		"etherlink.rtt_us_p50":      {quantile(a.rttNs, 0.5) / 1e3, "us"},
		"etherlink.rtt_us_p90":      {quantile(a.rttNs, 0.9) / 1e3, "us"},
		"etherlink.wire_us_p50":     {quantile(a.wireNs, 0.5) / 1e3, "us"},
		"etherlink.frames":          {float64(a.frames) / float64(a.passes), "count"},
		"etherlink.bytes":           {float64(a.bytes) / float64(a.passes), "B"},
		"etherlink.retries":         {float64(a.retries), "count"},
		"etherlink.window_share":    {a.windowShare(lEtherlink), "ratio"},
		"power.self_s":              {per(a.selfNs[lPower]), "s"},
		"tm.self_s":                 {per(a.selfNs[lTM]), "s"},
		"tm.dfs_events":             {float64(c.dfs), "count"},
		"golden.self_s":             {per(a.selfNs[lGolden]), "s"},
		"core.self_s":               {per(a.selfNs[lCore]), "s"},
		"core.window_share":         {a.windowShare(lCore), "ratio"},
		"core.allocs_per_window":    {ratio(a.refAllocs, a.refWindows), "count"},
		"core.bytes_per_window":     {ratio(a.refBytes, a.refWindows), "B"},
		"checkpoint.cut_s":          {median(a.cutS), "s"},
		"checkpoint.resume_s":       {median(a.resumeS), "s"},
		"checkpoint.bytes":          {median(a.ckBytes), "B"},
		"sweep.point_s_p50":         {median(a.pointS), "s"},
		"sweep.worker_busy_share":   {median(a.busyShare), "ratio"},
		"sweep.warmup_s":            {median(a.warmupS), "s"},
		"sweep.steals":              {float64(a.steals), "count"},
		"sweep.duplicates":          {float64(a.duplicates), "count"},
		"sweep.useful_ratio":        {ratio(uint64(a.points), uint64(a.results)), "ratio"},
		"trace.windows_per_s_ratio": {float64(a.refWallNs) / float64(a.refWindows) * float64(a.windows) / float64(a.tracedWallNs), "ratio"},
	}
	return m
}
