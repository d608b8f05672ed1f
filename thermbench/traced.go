package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/tm"
)

// Layers the traced run attributes time to, named by module.
const (
	lScenario  = iota // scenario.Parse + CoEmulation
	lSetup            // emu.New, program load, link open and start handshake
	lEmu              // Platform.Step + Fault + Snapshot
	lGolden           // emu.DigestSnapshot / DigestInto
	lPower            // PowerEvaluator.Powers / SetComponentTemps
	lEtherlink        // Dispatcher SendStats..RecvTemps, minus the host solve
	lThermal          // host-side solve (ThermalHost.Serve) + ComponentTemps
	lTM               // Policy.Update
	lCore             // the loop's own work between those calls
	lWindow           // one sampling window, parent of the spans above
	lInstance         // one traced instance, parent of its windows
	nLayers
)

var layerNames = [nLayers]string{"scenario", "setup", "emu", "golden", "power",
	"etherlink", "thermal", "tm", "core", "window", "instance"}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; parent indexes the enclosing span, -1 for a root.
type span struct {
	layer      uint8
	parent     int32
	start, end int64
}

// tracer keeps every span in memory; write dumps them once at the end.
// A tracer belongs to one goroutine; the host side records into its own
// hostTap and is merged after the host goroutine has ended.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(layer int, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{layer: uint8(layer), parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// write dumps the spans as CSV: id,parent,layer,start_ns,end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostTap wraps the host end of the link. It timestamps each statistics
// frame the host receives and each temperature frame it sends back; the
// interval between them is the host's solve of that window.
type hostTap struct {
	etherlink.Transport
	base   time.Time
	mu     sync.Mutex
	solves [][2]int64
	open   int64 // receive time of the statistics frame being solved, -1 if none
}

func newHostTap(base time.Time) *hostTap { return &hostTap{base: base, open: -1} }

func (h *hostTap) wrap(tr etherlink.Transport) etherlink.Transport {
	h.Transport = tr
	return h
}

func frameType(b []byte) etherlink.MsgType {
	f, err := etherlink.Unmarshal(b)
	if err != nil {
		return 0
	}
	return f.Type
}

func (h *hostTap) Recv() ([]byte, error) {
	b, err := h.Transport.Recv()
	if err == nil && frameType(b) == etherlink.MsgStats {
		t := int64(time.Since(h.base))
		h.mu.Lock()
		h.open = t
		h.mu.Unlock()
	}
	return b, err
}

func (h *hostTap) noteSend(b []byte) {
	t := int64(time.Since(h.base))
	if frameType(b) != etherlink.MsgTemp {
		return
	}
	h.mu.Lock()
	if h.open >= 0 {
		h.solves = append(h.solves, [2]int64{h.open, t})
		h.open = -1
	}
	h.mu.Unlock()
}

func (h *hostTap) Send(b []byte) error {
	h.noteSend(b)
	return h.Transport.Send(b)
}

func (h *hostTap) TrySend(b []byte) (bool, error) {
	h.noteSend(b)
	return h.Transport.TrySend(b)
}

// devTap wraps the device end of the link and counts its frames and bytes
// in both directions.
type devTap struct {
	etherlink.Transport
	frames, bytes uint64
}

func (d *devTap) wrap(tr etherlink.Transport) etherlink.Transport {
	d.Transport = tr
	return d
}

func (d *devTap) count(b []byte) {
	d.frames++
	d.bytes += uint64(len(b))
}

func (d *devTap) Send(b []byte) error {
	err := d.Transport.Send(b)
	if err == nil {
		d.count(b)
	}
	return err
}

func (d *devTap) TrySend(b []byte) (bool, error) {
	ok, err := d.Transport.TrySend(b)
	if ok && err == nil {
		d.count(b)
	}
	return ok, err
}

func (d *devTap) Recv() ([]byte, error) {
	b, err := d.Transport.Recv()
	if err == nil {
		d.count(b)
	}
	return b, err
}

// tracedResult is what one traced instance contributes to the layer totals.
type tracedResult struct {
	digest  string
	cycles  uint64
	windows int
	snap    emu.Snapshot
	skip    emu.SkipStats
	dfs     int
	// maxTempK is the run's peak cell temperature, as core.Run reports it.
	maxTempK float64
	frames   uint64
	bytes    uint64
	retries  uint64
	// rttNs and solveNs are per window: the device's link span and the
	// host's solve inside it.
	rttNs, solveNs []int64
	// maxGapNs is the largest per-window amount by which the host solve
	// failed to nest inside its link span (0 when every window nests).
	maxGapNs int64
}

// nestTolNs is the self-consistency tolerance. The device-side spans tile
// each window, so the layer self times sum to the window's wall time only
// if every host solve lies inside the link span that waited for it: the
// solve is moved from etherlink to thermal. A solve may stick out of its
// link span by at most this much, for clock reads on two goroutines.
const nestTolNs = 2000

// tracedLoop runs one instance through the same public calls as core.Run's
// serial transport-mode loop — emu.New/Step/Snapshot, DigestSnapshot,
// PowerEvaluator.Powers, the Dispatcher's SendStats/RecvTemps against
// ThermalHost.Serve, ComponentTemps and Policy.Update — and records a span
// around each. Between the calls it does core.Run's per-window bookkeeping
// (the kept Sample, the peak temperature, sensors only when a policy is
// set), so the core layer's self time is that of core.Run's loop. It must
// end on the same golden digest as core.Run.
func tracedLoop(tc *tracer, inst instance, l *link) (*tracedResult, error) {
	t0 := tc.now()
	root := tc.add(lInstance, -1, t0, 0)
	s, cfg, err := build(inst.text)
	if err != nil {
		return nil, err
	}
	t1 := tc.now()
	tc.add(lScenario, root, t0, t1)
	if cfg.Platform.Parallel || cfg.Platform.EventLogging || cfg.PipelineDepth > 0 || cfg.Resume != nil {
		return nil, fmt.Errorf("traced loop covers the serial loop only")
	}
	p, eval, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	htap := newHostTap(tc.base)
	dtap := &devTap{}
	ss, err := l.open(s, dtap.wrap, htap.wrap)
	if err != nil {
		return nil, err
	}
	finished := false
	defer func() {
		if !finished {
			ss.close(false)
		}
	}()
	disp := etherlink.NewDispatcher(ss.dev, p.VPCM, cfg.DrainPhysCycles)
	if !cfg.LinkPlain {
		disp.EnableReliability(cfg.Link)
	}
	if err := disp.SendCtrl(etherlink.CtrlStart, uint64(cfg.Host.NumComponents())); err != nil {
		return nil, err
	}
	tc.add(lSetup, root, t1, tc.now())

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	tscale := cfg.ThermalTimeScale
	if tscale <= 0 {
		tscale = 1
	}
	ncomp := cfg.Host.NumComponents()
	powers := make([]float64, ncomp)
	powerUW := make([]uint32, ncomp)
	prev := p.Snapshot()
	res := &tracedResult{}
	var samples []core.Sample
	var maxTempK float64
	var linkSpans [][2]int64
	var windows []int32

	mark := tc.now()
	for !p.AllHalted() && p.VPCM.Cycle() < maxCycles {
		ws := mark
		win := tc.add(lWindow, root, ws, 0)
		seg := func(layer int) {
			now := tc.now()
			tc.add(layer, win, mark, now)
			mark = now
		}
		period := uint64(1e12) / p.VPCM.Frequency()
		n := cfg.WindowPs / period
		if n == 0 {
			n = 1
		}
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		seg(lCore)
		p.Step(n)
		if err := p.Fault(); err != nil {
			return nil, err
		}
		snap := p.Snapshot()
		seg(lEmu)
		emu.DigestSnapshot(cfg.Golden, snap)
		seg(lGolden)
		if _, err := eval.Powers(prev, snap, powers); err != nil {
			return nil, err
		}
		seg(lPower)
		windowPs := uint64(float64(snap.TimePs-prev.TimePs) * tscale)
		prev = snap
		for i, w := range powers {
			powerUW[i] = uint32(w*1e6 + 0.5)
		}
		seg(lCore)
		ls := mark
		if err := disp.SendStats(&etherlink.Stats{Cycle: snap.Cycle, WindowPs: windowPs, PowerUW: powerUW}); err != nil {
			return nil, err
		}
		temps, err := disp.RecvTemps(nil)
		if err != nil {
			return nil, err
		}
		seg(lEtherlink)
		linkSpans = append(linkSpans, [2]int64{ls, mark})
		cellTemps := make([]float64, len(temps.MilliK))
		for i := range temps.MilliK {
			cellTemps[i] = temps.Kelvin(i)
		}
		seg(lCore)
		compTemps := cfg.Host.ComponentTemps(cellTemps)
		seg(lThermal)
		eval.SetComponentTemps(compTemps)
		seg(lPower)
		// core.Run's per-window bookkeeping: the sample it keeps (the timed
		// runs leave DiscardSamples off) and hands to onSample, and the run's
		// peak temperature.
		sample := core.Sample{
			Cycle:      snap.Cycle,
			TimePs:     snap.TimePs,
			FreqHz:     snap.FreqHz,
			CompPowerW: append([]float64(nil), powers...),
			CellTempK:  cellTemps,
			CompTempK:  compTemps,
		}
		for _, t := range cellTemps {
			sample.MaxTempK = max(sample.MaxTempK, t)
		}
		maxTempK = max(maxTempK, sample.MaxTempK)
		if cfg.Policy != nil {
			sensors := make([]tm.Sensor, len(compTemps))
			for i := range compTemps {
				sensors[i] = tm.Sensor{Name: cfg.Host.FP.Components[i].Name, TempK: cfg.Sensor.Read(compTemps[i])}
			}
			seg(lCore)
			action := cfg.Policy.Update(sensors)
			seg(lTM)
			if action.SetFreqHz != 0 {
				p.VPCM.SetFrequency(action.SetFreqHz)
			}
			if th, ok := cfg.Policy.(*tm.ThresholdDFS); ok {
				sample.Throttled = th.Throttled()
			}
		}
		samples = append(samples, sample)
		seg(lCore)
		tc.spans[win].end = mark
		windows = append(windows, win)
	}
	if err := disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle()); err != nil {
		return nil, err
	}
	g0 := tc.now()
	p.DigestInto(cfg.Golden)
	tc.add(lGolden, root, g0, tc.now())
	finished = true
	if err := ss.close(true); err != nil {
		return nil, fmt.Errorf("thermal host: %w", err)
	}
	tc.spans[root].end = tc.now()
	if !p.AllHalted() {
		return nil, fmt.Errorf("workload did not halt")
	}
	if cfg.Workload.Verify != nil {
		if err := cfg.Workload.Verify(p.ReadSharedWord); err != nil {
			return nil, fmt.Errorf("workload verification: %w", err)
		}
	}

	// Attribute each host solve to the window whose link span it answers.
	if len(htap.solves) != len(windows) {
		return nil, fmt.Errorf("host solved %d windows, device sent %d", len(htap.solves), len(windows))
	}
	for i, win := range windows {
		sv, lk := htap.solves[i], linkSpans[i]
		gap := max(lk[0]-sv[0], sv[1]-lk[1])
		if gap > res.maxGapNs {
			res.maxGapNs = gap
		}
		tc.add(lThermal, win, sv[0], sv[1])
		res.rttNs = append(res.rttNs, lk[1]-lk[0])
		res.solveNs = append(res.solveNs, sv[1]-sv[0])
	}
	res.maxTempK = maxTempK
	res.digest = cfg.Golden.Hex()
	res.cycles = p.VPCM.Cycle()
	res.windows = len(windows)
	res.snap = p.Snapshot()
	res.skip = p.SkipStats()
	res.dfs = p.VPCM.DFSEvents()
	res.frames, res.bytes = dtap.frames, dtap.bytes
	res.retries = disp.Link().Snapshot().Retries
	return res, nil
}
