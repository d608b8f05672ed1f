package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"thermemu/internal/core"
	"thermemu/internal/emu"
	"thermemu/internal/etherlink"
	"thermemu/internal/golden"
	"thermemu/internal/scenario"
)

// build parses a scenario and compiles its closed-loop configuration, with
// the golden digest on: the user's path from scenario text to core.Config.
func build(text string) (*scenario.Scenario, core.Config, error) {
	s, err := scenario.Parse(text)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg, err := s.CoEmulation()
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg.Golden = golden.New()
	return s, cfg, nil
}

// prepare instantiates the platform, loads the workload and builds the power
// evaluator: the public calls core.Run makes before its first window.
func prepare(cfg core.Config) (*emu.Platform, *core.PowerEvaluator, error) {
	p, err := emu.New(cfg.Platform)
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Workload.Programs) != len(p.Cores) {
		return nil, nil, fmt.Errorf("workload has %d programs for %d cores", len(cfg.Workload.Programs), len(p.Cores))
	}
	for i, im := range cfg.Workload.Programs {
		if err := p.LoadProgram(i, im); err != nil {
			return nil, nil, err
		}
	}
	for _, b := range cfg.Workload.Shared {
		p.WriteShared(b.Addr, b.Data)
	}
	eval := core.NewPowerEvaluator(cfg.Host.FP)
	eval.Leakage = cfg.Leakage
	eval.DVFS = cfg.DVFS
	return p, eval, nil
}

// link opens ThermalHost.Serve sessions for closed-loop instances, over the
// in-process loopback transport or over TCP to a listener on 127.0.0.1. At
// most one session is open at a time.
type link struct {
	kind string
	ln   net.Listener
}

func newLink(kind string) (*link, error) {
	l := &link{kind: kind}
	if kind == linkTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("link listener: %w", err)
		}
		l.ln = ln
	}
	return l, nil
}

func (l *link) close() {
	if l.ln != nil {
		l.ln.Close()
	}
}

// session is one open link: the device transport the loop drives and the
// host goroutine serving it.
type session struct {
	dev  etherlink.Transport
	done chan error
}

// wrapper interposes on a transport; nil means none.
type wrapper func(etherlink.Transport) etherlink.Transport

// open builds the host side's own thermal model for the scenario, starts
// ThermalHost.Serve on it and dials the device transport.
func (l *link) open(s *scenario.Scenario, wrapDev, wrapHost wrapper) (*session, error) {
	host, err := hostFor(s)
	if err != nil {
		return nil, err
	}
	ss := &session{done: make(chan error, 1)}
	serve := func(tr etherlink.Transport) {
		if wrapHost != nil {
			tr = wrapHost(tr)
		}
		err := host.Serve(tr)
		tr.Close()
		ss.done <- err
	}
	switch l.kind {
	case linkTCP:
		// The kernel completes the handshake from its backlog, so the dial
		// returns before the accept.
		dev, err := etherlink.Dial(l.ln.Addr().String(), 256)
		if err != nil {
			return nil, fmt.Errorf("link dial: %w", err)
		}
		conn, err := l.ln.Accept()
		if err != nil {
			dev.Close()
			return nil, fmt.Errorf("link accept: %w", err)
		}
		go serve(etherlink.NewTCP(conn, 256))
		ss.dev = dev
	default:
		dev, hostTr := etherlink.LoopbackPair(256)
		go serve(hostTr)
		ss.dev = dev
	}
	if wrapDev != nil {
		ss.dev = wrapDev(ss.dev)
	}
	return ss, nil
}

// close shuts the device end and waits for the host goroutine. A host that
// already returned nil after CtrlStop reports no error; one cut off by the
// close reports its transport error only if the loop did not finish.
func (ss *session) close(finished bool) error {
	ss.dev.Close()
	err := <-ss.done
	if finished {
		return err
	}
	return nil
}

// hostFor builds the host side's own thermal model for a scenario through
// the scenario package's own path: the Host of a second CoEmulation, with
// the same floorplan, cell count and solver options as the device's.
func hostFor(s *scenario.Scenario) (*core.ThermalHost, error) {
	cfg, err := s.CoEmulation()
	if err != nil {
		return nil, err
	}
	return cfg.Host, nil
}

// opResult is one closed-loop instance's outcome.
type opResult struct {
	wall    time.Duration // parse to return, as the user waits for it
	cycles  uint64
	windows int
	digest  string
	// maxTempK is core.Run's peak cell temperature.
	maxTempK float64
	// windowMs is the host time between consecutive onSample calls.
	windowMs []float64
}

// runOp runs one instance end to end through the public entry points:
// scenario.Parse → CoEmulation → core.Run over the link. It fails if the
// run errors, aborts or fails the workload's Go reference Verify (core.Run
// verifies a halted workload itself).
func runOp(inst instance, l *link, keepWindows bool) (*opResult, error) {
	start := time.Now()
	s, cfg, err := build(inst.text)
	if err != nil {
		return nil, err
	}
	res := &opResult{}
	var ss *session
	if l != nil {
		if ss, err = l.open(s, nil, nil); err != nil {
			return nil, err
		}
		cfg.Transport = ss.dev
	}
	var last time.Time
	run, err := core.Run(cfg, func(core.Sample) {
		now := time.Now()
		if res.windows > 0 && keepWindows {
			res.windowMs = append(res.windowMs, float64(now.Sub(last).Nanoseconds())/1e6)
		}
		last = now
		res.windows++
	})
	if ss != nil {
		if cerr := ss.close(err == nil); err == nil && cerr != nil {
			err = fmt.Errorf("thermal host: %w", cerr)
		}
	}
	res.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := checkRun(run); err != nil {
		return nil, err
	}
	res.cycles = run.Cycles
	res.maxTempK = run.MaxTempK
	res.digest = cfg.Golden.Hex()
	return res, nil
}

// checkRun rejects a run that stopped short: every generated workload halts.
func checkRun(run *core.Result) error {
	switch {
	case run.Partial:
		return errors.New("run aborted with a partial result")
	case !run.Done:
		return errors.New("workload did not halt")
	}
	return nil
}

// measureSetup times one instance from scenario text to the first emulated
// cycle: scenario build, thermal grid construction on both ends, program
// assembly and load, and the link dial with its start handshake — every
// call core.Run and the host make before the first window.
func measureSetup(inst instance, l *link) (time.Duration, error) {
	start := time.Now()
	s, cfg, err := build(inst.text)
	if err != nil {
		return 0, err
	}
	p, _, err := prepare(cfg)
	if err != nil {
		return 0, err
	}
	if l == nil {
		return time.Since(start), nil
	}
	ss, err := l.open(s, nil, nil)
	if err != nil {
		return 0, err
	}
	disp := etherlink.NewDispatcher(ss.dev, p.VPCM, cfg.DrainPhysCycles)
	if !cfg.LinkPlain {
		disp.EnableReliability(cfg.Link)
	}
	err = disp.SendCtrl(etherlink.CtrlStart, uint64(cfg.Host.NumComponents()))
	d := time.Since(start)
	if err == nil {
		err = disp.SendCtrl(etherlink.CtrlStop, 0)
	}
	if cerr := ss.close(err == nil); err == nil {
		err = cerr
	}
	return d, err
}
