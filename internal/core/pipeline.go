package core

// The co-emulation window engine: the software analogue of the paper's
// HW/SW overlap. On the FPGA the emulator keeps running at speed while the
// host PC integrates temperatures concurrently, and the VPCM freezes the
// virtual clock only when the link or the solver genuinely falls behind
// (Section 4.2, Table 3). The loop is a pipeline of two stages connected by
// a bounded hand-off queue of PipelineDepth windows:
//
//	emulate stage (caller's goroutine)   solve stage
//	┌──────────────────────────┐  work   ┌───────────────────────────┐
//	│ step window, snapshot,   │ ──────► │ dispatch stats (link or   │
//	│ power eval, golden digest│         │ in-process), thermal step,│
//	│ apply delayed feedback   │ ◄────── │ sensors, TM policy        │
//	└──────────────────────────┘  done   └───────────────────────────┘
//
// At depth 0 (the blocking loop) the solve stage runs inline on the
// caller's goroutine right after each window emulates: no goroutine, no
// channels, and the VPCM itself freezes the virtual clock while the link
// waits. At depth > 0 it runs on its own goroutine.
//
// Determinism contract: the feedback of window N (DFS action and component
// temperatures for leakage) is applied at the fixed window boundary before
// window N+depth+1 emulates — a sensor latency of `depth` windows. Window
// boundaries therefore depend only on emulated state, never on host timing:
// runs are bit-reproducible run to run, and with TM feedback off (no DFS,
// no leakage) every depth is digest-identical to depth 0. Backpressure —
// the solver lagging so far that the queue fills — only freezes *physical*
// time via vpcm.ThermalLagSource, mirroring the Ethernet congestion freeze.
//
// Buffer ownership: window seq lives in bufs[seq % (depth+2)], so the window
// about to emulate never reuses a buffer still in flight or the previous
// window's snapshot (the power evaluation's baseline). A window is written
// by the emulate stage (snapshot, powers), handed off, written by the solve
// stage (temps, sensors, policy verdict), handed back, and read at the
// feedback boundary. Channel hand-off provides the happens-before edges, so
// no other synchronisation is needed, and the steady-state loop allocates
// nothing.

import (
	"errors"
	"fmt"
	"time"

	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/tm"
	"thermemu/internal/vpcm"
)

// asyncFreezer adapts the VPCM for link backpressure accounting raised from
// the solve stage: frozen time lands in the (mutex-guarded) per-source
// totals, but the freeze flag itself — which the emulate stage polls
// unsynchronised on every Advance — is never toggled. The emulate stage
// raises its own thermal-lag freeze when the hand-off queue fills, which is
// when link stalls actually reach the virtual clock.
type asyncFreezer struct{ v *vpcm.VPCM }

func (a asyncFreezer) RequestFreeze(string)            {}
func (a asyncFreezer) ReleaseFreeze(string)            {}
func (a asyncFreezer) AddFrozenTime(physCycles uint64) { a.v.AddFrozenTime(physCycles) }
func (a asyncFreezer) AddFrozenTimeSource(source string, physCycles uint64) {
	a.v.AddFrozenTimeSource(source, physCycles)
}

// window is one in-flight sampling window of the pipeline.
type window struct {
	windowPs uint64 // thermal integration span (time-scaled)
	snap     emu.Snapshot
	powers   []float64 // per-component dynamic+static power, W
	powerUW  []uint32  // link encoding of powers
	// Solve-stage results.
	cellTemps []float64
	compTemps []float64
	sensors   []tm.Sensor
	maxTempK  float64
	setFreqHz uint64 // 0 = no DFS action
	throttled bool
	err       error
}

// solver is the solve stage's reusable scratch: the run of windows being
// solved and the link message buffers.
type solver struct {
	pend   []*window
	batch  etherlink.StatsBatch
	treply etherlink.TempsBatch
	temps  etherlink.Temps
}

// errSolverExited reports a solve stage that closed its output early.
var errSolverExited = errors.New("core: pipeline solver exited early")

// thermalLagPs extracts the thermal-lag frozen time from the VPCM.
func thermalLagPs(v *vpcm.VPCM) uint64 {
	for _, e := range v.FrozenPsBySource() {
		if e.Source == vpcm.ThermalLagSource {
			return e.Ps
		}
	}
	return 0
}

// engine is one run of the window loop. The platform is already built and
// loaded; disp is nil in in-process mode.
type engine struct {
	cfg      Config
	p        *emu.Platform
	eval     *PowerEvaluator
	disp     *etherlink.Dispatcher
	ck       *ckptRuntime
	onSample func(Sample)
	res      *Result
	start    time.Time

	bufs      []*window
	seq       uint64 // windows emulated and handed off
	applied   uint64 // window feedbacks consumed
	committed emu.Snapshot
	// lagTemps is the evaluator-owned copy of the last applied component
	// temperatures (the window buffer is reused later).
	lagTemps []float64

	inline     solver       // depth 0: the inline solve's scratch
	work, done chan *window // depth > 0: the solve stage's queues (nil at depth 0)
}

// runLoop executes the co-emulation window loop at cfg.PipelineDepth.
func runLoop(cfg Config, p *emu.Platform, eval *PowerEvaluator, disp *etherlink.Dispatcher,
	ck *ckptRuntime, resumedMax float64, onSample func(Sample)) (*Result, error) {

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	tscale := cfg.ThermalTimeScale
	if tscale <= 0 {
		tscale = 1
	}
	depth := uint64(cfg.PipelineDepth)
	ncomp := cfg.Host.NumComponents()
	e := &engine{
		cfg: cfg, p: p, eval: eval, disp: disp, ck: ck, onSample: onSample,
		res:      &Result{MaxTempK: resumedMax},
		start:    time.Now(),
		bufs:     make([]*window, depth+2),
		lagTemps: make([]float64, 0, ncomp),
	}
	for i := range e.bufs {
		e.bufs[i] = &window{
			powers:  make([]float64, ncomp),
			powerUW: make([]uint32, ncomp),
		}
	}
	if depth > 0 {
		// work holds the depth windows the emulation may run ahead; done
		// has room for every window in flight, so the solver never blocks
		// handing one back.
		e.work = make(chan *window, depth)
		e.done = make(chan *window, depth+1)
		go solveStage(cfg, disp, e.work, e.done)
	}

	var snap0 emu.Snapshot
	p.SnapshotInto(&snap0)
	prev := &snap0
	snap0.CopyInto(&e.committed)

	for !p.AllHalted() && p.VPCM.Cycle() < maxCycles {
		job := e.bufs[(e.seq+1)%uint64(len(e.bufs))]
		// One sampling window at the current virtual frequency.
		period := uint64(1e12) / p.VPCM.Frequency()
		n := cfg.WindowPs / period
		if n == 0 {
			n = 1
		}
		if left := maxCycles - p.VPCM.Cycle(); n > left {
			n = left
		}
		// With a Parallel platform the window is executed by the
		// deterministic parallel kernel; results are bit-identical to
		// serial stepping (asserted by the golden conformance suite), so
		// the whole closed loop — power, temperature, DFS — is unchanged.
		if cfg.Platform.Parallel {
			p.RunParallel(0, p.VPCM.Cycle()+n)
		} else {
			p.Step(n)
		}
		if err := p.Fault(); err != nil {
			return e.abort(err)
		}
		p.SnapshotInto(&job.snap)
		emu.DigestSnapshot(cfg.Golden, job.snap)
		if disp != nil && cfg.Platform.EventLogging {
			// Depth 0 only: the event ring drains inline with emulation.
			if _, err := disp.PumpEvents(p.Ring); err != nil {
				return e.abort(err)
			}
		}
		if _, err := eval.Powers(*prev, job.snap, job.powers); err != nil {
			return e.abort(err)
		}
		job.windowPs = uint64(float64(job.snap.TimePs-prev.TimePs) * tscale)
		prev = &job.snap
		e.seq++
		job.err = nil
		e.handoff(job)

		// Deterministic feedback boundary: before the next window emulates,
		// the feedback of window seq-depth must be in effect.
		if e.seq-e.applied > depth {
			if err := e.commitNext(); err != nil {
				return e.abort(err)
			}
		}
		// Checkpoint boundary: drain every in-flight window so the platform
		// state and all committed feedback coincide — a pipeline flush —
		// then cut the checkpoint. The drain applies feedback earlier than
		// the steady-state schedule, so the cadence is part of the run's
		// determinism contract (see Config.CheckpointEvery).
		if ck.due(e.seq - e.applied) {
			if err := e.drain(); err != nil {
				return e.abort(err)
			}
			if err := ck.write(false, e.res.MaxTempK); err != nil {
				return e.abort(err)
			}
		}
	}

	// The remaining in-flight windows still owe their feedback; commit them
	// in order at the final boundary.
	if err := e.drain(); err != nil {
		return e.abort(err)
	}
	e.stop()
	res := e.res
	if disp != nil {
		if err := disp.SendCtrl(etherlink.CtrlStop, p.VPCM.Cycle()); err != nil {
			return e.abort(err)
		}
		res.Congestion = disp.Stats()
		res.Link = disp.Link().Snapshot()
	}
	p.DigestInto(cfg.Golden)
	res.Cycles = p.VPCM.Cycle()
	res.VirtualS = p.VPCM.Time()
	res.Wall = time.Since(e.start)
	res.Done = p.AllHalted()
	res.DFSEvents = p.VPCM.DFSEvents()
	res.ThermalLagPs = thermalLagPs(p.VPCM)
	res.FinalSnap = p.Snapshot()
	res.Report = p.Report()
	res.Speculation = p.SpecStats()

	if res.Done && cfg.Workload.Verify != nil {
		if err := cfg.Workload.Verify(p.ReadSharedWord); err != nil {
			return res, fmt.Errorf("core: workload verification: %w", err)
		}
	}
	return res, nil
}

// handoff passes an emulated window to the solve stage: inline at depth 0,
// otherwise through the work queue. A full queue means the solver is a full
// pipeline behind: the wait freezes virtual time.
func (e *engine) handoff(w *window) {
	if e.done == nil {
		e.inline.pend = append(e.inline.pend[:0], w)
		e.inline.solve(e.cfg, e.disp) // a failure lands on w.err
		return
	}
	select {
	case e.work <- w:
	default:
		e.lagFreeze(func() { e.work <- w })
	}
}

// commitNext waits for the oldest in-flight window's solve and applies its
// feedback. An empty done queue means the solver is behind: virtual time
// freezes for the wait.
func (e *engine) commitNext() error {
	var w *window
	if e.done == nil {
		w = e.bufs[(e.applied+1)%uint64(len(e.bufs))]
	} else {
		ok := true
		select {
		case w, ok = <-e.done:
		default:
			e.lagFreeze(func() { w, ok = <-e.done })
		}
		if !ok {
			return errSolverExited
		}
	}
	if w.err != nil {
		return w.err
	}
	e.apply(w)
	return nil
}

// drain commits every in-flight window.
func (e *engine) drain() error {
	for e.applied < e.seq {
		if err := e.commitNext(); err != nil {
			return err
		}
	}
	return nil
}

// lagFreeze runs a blocking hand-off with the virtual clock frozen under
// vpcm.ThermalLagSource, accounting the physical time it took.
func (e *engine) lagFreeze(wait func()) {
	v := e.p.VPCM
	t0 := time.Now()
	v.RequestFreeze(vpcm.ThermalLagSource)
	wait()
	v.ReleaseFreeze(vpcm.ThermalLagSource)
	v.AddFrozenTimeSource(vpcm.ThermalLagSource, uint64(time.Since(t0).Seconds()*float64(v.PhysHz())))
}

// apply commits window w's feedback at the current window boundary: DFS
// programs the VPCM, component temperatures feed the next power evaluation
// (leakage), and the sample is emitted.
func (e *engine) apply(w *window) {
	res := e.res
	if w.setFreqHz != 0 {
		e.p.VPCM.SetFrequency(w.setFreqHz)
	}
	e.lagTemps = append(e.lagTemps[:0], w.compTemps...)
	e.eval.SetComponentTemps(e.lagTemps)
	sample := Sample{
		Cycle:     w.snap.Cycle,
		TimePs:    w.snap.TimePs,
		FreqHz:    w.snap.FreqHz,
		MaxTempK:  w.maxTempK,
		Throttled: w.throttled,
	}
	if e.cfg.DiscardSamples {
		// The sample's slices are reused buffers: valid only while the
		// callback runs (documented on Config.DiscardSamples).
		sample.CompPowerW = w.powers
		sample.CellTempK = w.cellTemps
		sample.CompTempK = w.compTemps
	} else {
		sample.CompPowerW = append([]float64(nil), w.powers...)
		sample.CellTempK = append([]float64(nil), w.cellTemps...)
		sample.CompTempK = append([]float64(nil), w.compTemps...)
		res.Samples = append(res.Samples, sample)
	}
	if w.maxTempK > res.MaxTempK {
		res.MaxTempK = w.maxTempK
	}
	if e.onSample != nil {
		e.onSample(sample)
	}
	// The window is committed only once its temperatures arrived and the
	// policy ran: from here on its snapshot is safe to report.
	w.snap.CopyInto(&e.committed)
	e.applied++
	e.ck.commit(w.compTemps)
}

// stop shuts the solve stage down and waits for it to exit; a no-op at
// depth 0 and on the second call.
func (e *engine) stop() {
	if e.work != nil {
		close(e.work)
		for range e.done {
		}
		e.work = nil
	}
}

// abort tears the loop down after err and reports the last committed
// window.
func (e *engine) abort(err error) (*Result, error) {
	e.stop()
	// The solver has exited, so the thermal model is quiescent and safe to
	// snapshot for the flush.
	res := e.res
	err = e.ck.flushPartial(err, res.MaxTempK)
	res.Partial = true
	res.FinalSnap = e.committed
	res.Cycles = e.committed.Cycle
	res.VirtualS = float64(e.committed.TimePs) * 1e-12
	res.Wall = time.Since(e.start)
	res.DFSEvents = e.p.VPCM.DFSEvents()
	res.ThermalLagPs = thermalLagPs(e.p.VPCM)
	if e.disp != nil {
		res.Congestion = e.disp.Stats()
		res.Link = e.disp.Link().Snapshot()
	}
	return res, err
}

// solveStage is the depth > 0 solve stage: it dispatches each window's
// statistics (in-process call or Ethernet frames), converts the returned
// cell temperatures to component sensor readings, and runs the TM policy,
// recording the DFS verdict for the emulate stage to apply at the
// deterministic boundary. In transport mode, windows that queued up while
// the link was busy are shipped as one MsgStatsBatch frame. After a
// failure every subsequent window is bounced with the same error so the
// emulate stage observes it at the next boundary.
func solveStage(cfg Config, disp *etherlink.Dispatcher, work <-chan *window, done chan<- *window) {
	defer close(done)
	var failed error
	maxBatch := 1
	if disp != nil {
		maxBatch = etherlink.MaxStatsBatch(cfg.Host.NumComponents())
		if maxBatch > cfg.PipelineDepth {
			maxBatch = cfg.PipelineDepth
		}
	}
	var s solver
	for w := range work {
		s.pend = append(s.pend[:0], w)
		for len(s.pend) < maxBatch {
			select {
			case w2, ok := <-work:
				if !ok {
					goto process
				}
				s.pend = append(s.pend, w2)
				continue
			default:
			}
			break
		}
	process:
		if failed == nil {
			failed = s.solve(cfg, disp)
		} else {
			for _, w := range s.pend {
				w.err = failed
			}
		}
		for _, w := range s.pend {
			done <- w
		}
	}
}

// solve solves the run of consecutive windows in s.pend. On error the
// failing and every later window carry w.err; earlier windows stay valid.
func (s *solver) solve(cfg Config, disp *etherlink.Dispatcher) error {
	pend := s.pend
	if disp == nil {
		for _, w := range pend {
			ct, err := cfg.Host.StepWindowInto(w.powers, float64(w.windowPs)*1e-12, w.cellTemps)
			if err != nil {
				return failFrom(pend, w, err)
			}
			w.cellTemps = ct
			finishWindow(cfg, w)
		}
		return nil
	}

	for _, w := range pend {
		for i, pw := range w.powers {
			w.powerUW[i] = uint32(pw*1e6 + 0.5)
		}
	}
	if len(pend) == 1 {
		w := pend[0]
		if err := disp.SendStats(&etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		}); err != nil {
			return failFrom(pend, w, err)
		}
		if err := disp.RecvTempsInto(&s.temps, nil); err != nil {
			return failFrom(pend, w, err)
		}
		w.cellTemps = kelvinInto(w.cellTemps, s.temps.MilliK)
		finishWindow(cfg, w)
		return nil
	}

	batch := &s.batch
	if cap(batch.Windows) < len(pend) {
		batch.Windows = make([]etherlink.Stats, len(pend))
	}
	batch.Windows = batch.Windows[:len(pend)]
	for i, w := range pend {
		batch.Windows[i] = etherlink.Stats{
			Cycle: w.snap.Cycle, WindowPs: w.windowPs, PowerUW: w.powerUW,
		}
	}
	if err := disp.SendStatsBatch(batch); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if err := disp.RecvTempsBatchInto(&s.treply, nil); err != nil {
		return failFrom(pend, pend[0], err)
	}
	if len(s.treply.Windows) != len(pend) {
		return failFrom(pend, pend[0], fmt.Errorf(
			"core: host answered %d temperature windows for a %d-window batch",
			len(s.treply.Windows), len(pend)))
	}
	for i, w := range pend {
		w.cellTemps = kelvinInto(w.cellTemps, s.treply.Windows[i].MilliK)
		finishWindow(cfg, w)
	}
	return nil
}

// failFrom marks w and every window after it in pend with err.
func failFrom(pend []*window, w *window, err error) error {
	mark := false
	for _, x := range pend {
		if x == w {
			mark = true
		}
		if mark {
			x.err = err
		}
	}
	return err
}

// kelvinInto converts quantised millikelvin into a reused float buffer.
func kelvinInto(dst []float64, milliK []uint32) []float64 {
	if cap(dst) < len(milliK) {
		dst = make([]float64, len(milliK))
	}
	dst = dst[:len(milliK)]
	for i, v := range milliK {
		dst[i] = float64(v) / 1000
	}
	return dst
}

// finishWindow derives the window's sensor readings and policy verdict
// from its fresh cell temperatures.
func finishWindow(cfg Config, w *window) {
	w.compTemps = cfg.Host.ComponentTempsInto(w.cellTemps, w.compTemps)
	w.maxTempK = 0
	for _, t := range w.cellTemps {
		if t > w.maxTempK {
			w.maxTempK = t
		}
	}
	w.setFreqHz = 0
	w.throttled = false
	if cfg.Policy != nil {
		if cap(w.sensors) < len(w.compTemps) {
			w.sensors = make([]tm.Sensor, 0, len(w.compTemps))
		}
		w.sensors = w.sensors[:0]
		for i, t := range w.compTemps {
			w.sensors = append(w.sensors, tm.Sensor{
				Name:  cfg.Host.FP.Components[i].Name,
				TempK: cfg.Sensor.Read(t),
			})
		}
		action := cfg.Policy.Update(w.sensors)
		w.setFreqHz = action.SetFreqHz
		if th, ok := cfg.Policy.(*tm.ThresholdDFS); ok {
			w.throttled = th.Throttled()
		}
	}
}
