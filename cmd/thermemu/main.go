// Command thermemu runs the HW/SW co-emulation framework from the command
// line: it emulates an MPSoC running one of the paper's workloads, streams
// per-window power statistics to the SW thermal library (in-process by
// default, or to a remote cmd/thermserver over TCP), applies the selected
// run-time thermal-management policy, and reports the run. The platform,
// workload and thermal flags build a scenario.Scenario, so a flag run and a
// -scenario file run take the same Lint → CoEmulation path.
//
// Examples:
//
//	thermemu -cores 4 -workload matrix -n 16 -iters 100
//	thermemu -cores 4 -workload matrix-tm -iters 400 -tm -csv run.csv
//	thermemu -cores 4 -workload dithering -size 64 -ic noc
//	thermemu -scenario examples/scenarios/fir.scn -digest   (declarative run)
//	thermemu -workload matrix-tm -host 127.0.0.1:9077   (remote thermal host)
//	thermemu -workload matrix-tm -iters 400 -digest -checkpoint ck/   (checkpointed)
//	thermemu -workload matrix-tm -iters 400 -digest -resume ck/win-000010.tmck
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	"thermemu"
	"thermemu/internal/core"
	"thermemu/internal/etherlink"
	"thermemu/internal/scenario"
	"thermemu/internal/trace"
	"thermemu/internal/workloads"
)

func main() {
	s, o, err := parseArgs(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case o == nil:
		os.Exit(2) // the flag set already printed the error and usage
	case err == nil:
		err = profiled(o.cpuProf, o.memProf, o.execTrace, func() error { return run(s, o) })
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermemu:", err)
		os.Exit(1)
	}
}

// options are the run-control flags: everything a run needs besides its
// scenario.
type options struct {
	scenPath                    string
	csvPath, hostAddr           string
	redial, report, digest      bool
	ckptDir                     string
	ckptEvery                   int
	resume, fork                string
	vcdPath, jsonPath           string
	cpuProf, execTrace, memProf string
}

// parseArgs parses the command line into the run's Scenario and options.
// The scenario-writing flags live on their own flag set and build the
// Scenario, starting from scenario.New; with -scenario the parsed file is
// the Scenario instead, so setting any of those flags is refused. The
// options are nil only when the command line itself does not parse.
func parseArgs(args []string) (*scenario.Scenario, *options, error) {
	s := scenario.New()
	var (
		ic, nocSpec string
		withTM      bool
	)
	sf := flag.NewFlagSet("scenario", flag.ContinueOnError)
	sf.IntVar(&s.Cores, "cores", s.Cores, "emulated cores (1-8)")
	sf.StringVar(&s.Workload, "workload", s.Workload, workloads.NamesHelp())
	sf.IntVar(&s.N, "n", s.N, "matrix dimension / FIR taps / histogram bins")
	sf.IntVar(&s.Iters, "iters", s.Iters, "repetition count (sustained-load iterations)")
	sf.IntVar(&s.Size, "size", s.Size, "dithering image edge")
	sf.IntVar(&s.Words, "words", s.Words, "stream length (membound, fir, histogram) / pipeline items")
	sf.StringVar(&ic, "ic", s.IC, "interconnect: opb | plb | custom | noc")
	sf.StringVar(&nocSpec, "noc", "pair", "NoC topology when -ic noc: pair | mesh:WxH | ring:N")
	sf.IntVar(&s.FreqMHz, "freq", s.FreqMHz, "virtual clock in MHz (0 = platform default)")
	sf.BoolVar(&s.Blocks, "blocks", s.Blocks, "threaded-code block dispatch: translate straight-line R32 blocks at first execution (bit-identical results, faster on compute-bound code)")
	sf.BoolVar(&withTM, "tm", false, "enable the 350K/340K threshold DFS policy")
	sf.Float64Var(&s.WindowMs, "window", s.WindowMs, "sampling window in virtual ms")
	sf.IntVar(&s.Pipeline, "pipeline", s.Pipeline, "pipeline depth: overlap emulation with the thermal solve at a sensor latency of this many windows (0 = solve each window before the next)")
	sf.Float64Var(&s.Timescale, "timescale", s.Timescale, "thermal time compression (1 = paper-faithful)")
	sf.IntVar(&s.Cells, "cells", s.Cells, "thermal cells for the floorplan grid")
	sf.IntVar(&s.Workers, "workers", s.Workers, "thermal solver shards (0 = auto, 1 = serial)")
	sf.StringVar(&s.Fault, "fault", s.Fault, "inject link faults, e.g. drop=0.01,dup=0.005,reorder=0.01,corrupt=0.001,delay=2ms,cut=500 (applied to both directions)")
	sf.Int64Var(&s.FaultSeed, "fault-seed", s.FaultSeed, "PRNG seed for -fault")

	fs := flag.NewFlagSet("thermemu", flag.ContinueOnError)
	sf.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	o := &options{}
	fs.StringVar(&o.scenPath, "scenario", "", "run a declarative scenario file instead of the platform/workload flags")
	fs.StringVar(&o.csvPath, "csv", "", "write per-window samples to this CSV file")
	fs.StringVar(&o.hostAddr, "host", "", "remote thermal server address (empty = in-process)")
	fs.BoolVar(&o.redial, "redial", false, "supervise the host connection: reconnect with capped exponential backoff on link faults")
	fs.BoolVar(&o.report, "report", false, "print the detailed platform statistics report")
	fs.BoolVar(&o.digest, "digest", false, "accumulate and print the run's golden conformance digest")
	fs.StringVar(&o.ckptDir, "checkpoint", "", "write window-boundary checkpoints (win-NNNNNN.tmck) into this directory")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 10, "checkpoint cadence in sampling windows for -checkpoint")
	fs.StringVar(&o.resume, "resume", "", "resume a run from this checkpoint file (continues its golden digest lineage; flags must match the original run)")
	fs.StringVar(&o.fork, "fork", "", "like -resume but as a new experiment branching off the snapshot (fresh digest lineage)")
	fs.StringVar(&o.vcdPath, "vcd", "", "write the run as a VCD waveform to this path")
	fs.StringVar(&o.jsonPath, "json", "", "write the run's samples as JSON to this path")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&o.execTrace, "exectrace", "", "write a runtime execution trace of the run to this path (inspect with go tool trace)")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile at exit to this path")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}

	if o.scenPath != "" {
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			if sf.Lookup(f.Name) != nil && conflict == nil {
				conflict = fmt.Errorf("-%s conflicts with -scenario: set it in the scenario file", f.Name)
			}
		})
		if conflict != nil {
			return nil, o, conflict
		}
		src, err := os.ReadFile(o.scenPath)
		if err != nil {
			return nil, o, fmt.Errorf("scenario: %w", err)
		}
		if s, err = scenario.Parse(string(src)); err != nil {
			return nil, o, fmt.Errorf("scenario: %s: %w", o.scenPath, err)
		}
		return s, o, nil
	}
	s.IC = ic
	if ic == "noc" {
		s.IC = "noc:" + nocSpec
	}
	if withTM {
		s.Policy = "threshold-dfs"
	}
	return s, o, nil
}

// profiled runs body under the requested pprof collectors and the runtime
// execution tracer. The CPU profile and the execution trace cover the whole
// run; the heap profile is written after a final GC so it reflects live
// steady-state memory, not garbage.
func profiled(cpuPath, memPath, tracePath string, body func() error) error {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memPath != "" {
		defer func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "thermemu:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "thermemu:", err)
			}
		}()
	}
	return body()
}

// run executes one co-emulation: the scenario, flag-built or from a file,
// goes through Lint and CoEmulation, then the run-control options wire
// digest, checkpoints, the host link and outputs.
func run(s *scenario.Scenario, o *options) error {
	source := "flags"
	if o.scenPath != "" {
		source = o.scenPath
	}
	if err := s.Lint(); err != nil {
		return fmt.Errorf("scenario: %s: %w", source, err)
	}
	s.Digest = s.Digest || o.digest // a scenario may pin its own evidence
	for _, w := range s.Warnings() {
		fmt.Fprintf(os.Stderr, "thermemu: warning: %s: %s\n", source, w)
	}
	cfg, err := s.CoEmulation()
	if err != nil {
		return err
	}
	spec := cfg.Workload
	if s.Digest {
		cfg.Golden = thermemu.NewGoldenTrace()
	}
	if o.ckptDir != "" {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			return err
		}
		cfg.CheckpointEvery = o.ckptEvery
		cfg.CheckpointSink = func(c *thermemu.Checkpoint) error {
			name := fmt.Sprintf("win-%06d.tmck", c.Window)
			if c.Partial {
				name = fmt.Sprintf("win-%06d-partial.tmck", c.Window)
			}
			return c.WriteFile(filepath.Join(o.ckptDir, name))
		}
	}
	if o.resume != "" && o.fork != "" {
		return fmt.Errorf("-resume and -fork are mutually exclusive")
	}
	if path := o.resume + o.fork; path != "" {
		c, err := thermemu.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		cfg.Resume = c
		cfg.Fork = o.fork != ""
		fmt.Printf("resuming:       %s (window %d, cycle %d, partial=%v)\n",
			path, c.Window, c.Platform.Clock.Cycle, c.Partial)
	}
	if o.hostAddr != "" {
		fcfg, err := s.FaultConfig()
		if err != nil {
			return err
		}
		wrap := func(tr thermemu.Transport) thermemu.Transport {
			if fcfg.Zero() {
				return tr
			}
			return etherlink.NewFaultTransport(tr, s.FaultSeed, fcfg, fcfg)
		}
		var tr thermemu.Transport
		if o.redial {
			tr, err = etherlink.DialSupervised(etherlink.SupervisorConfig{
				Addr:         o.hostAddr,
				GracefulStop: true,
				Wrap:         wrap,
				Logf:         func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
			})
		} else {
			tr, err = thermemu.DialThermalHost(o.hostAddr)
			if err == nil {
				tr = wrap(tr)
			}
		}
		if err != nil {
			return err
		}
		defer tr.Close()
		cfg.Transport = tr
		cfg.DrainPhysCycles = 1000
	}

	var csv *os.File
	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			return err
		}
		csv = f
		defer csv.Close()
		fmt.Fprintln(csv, "time_s,cycle,freq_mhz,max_temp_k,total_power_w,throttled")
	}
	onSample := func(smp core.Sample) {
		if csv == nil {
			return
		}
		var pw float64
		for _, w := range smp.CompPowerW {
			pw += w
		}
		throttled := 0
		if smp.Throttled {
			throttled = 1
		}
		fmt.Fprintf(csv, "%.6f,%d,%.0f,%.3f,%.4f,%d\n",
			float64(smp.TimePs)*1e-12, smp.Cycle, float64(smp.FreqHz)/1e6, smp.MaxTempK, pw, throttled)
	}

	res, err := thermemu.RunCoEmulation(cfg, onSample)
	if err != nil {
		return err
	}
	fmt.Printf("workload:       %s on %d cores over %s\n", spec.Name, s.Cores, s.IC)
	fmt.Printf("cycles:         %d (%.4f s virtual)\n", res.Cycles, res.VirtualS)
	fmt.Printf("wall time:      %v\n", res.Wall)
	fmt.Printf("samples:        %d (window %.2f ms)\n", len(res.Samples), s.WindowMs)
	fmt.Printf("max temp:       %.2f K\n", res.MaxTempK)
	fmt.Printf("DFS events:     %d\n", res.DFSEvents)
	if s.Pipeline > 0 {
		fmt.Printf("pipeline:       depth %d (sensor latency %d windows), thermal lag %.3f ms frozen\n",
			s.Pipeline, s.Pipeline, float64(res.ThermalLagPs)*1e-9)
	}
	if s.Digest {
		// The digest pins the whole run: identical flags must reproduce it
		// bit for bit (serial or parallel platform alike).
		fmt.Printf("golden digest:  %s over %d records\n", cfg.Golden.Hex(), cfg.Golden.Len())
	}
	if o.hostAddr != "" {
		fmt.Printf("link stats:     %d stats frames, %d temps frames, %d congestions, %d retries\n",
			res.Congestion.StatsSent, res.Congestion.TempsRecv, res.Congestion.Congestions,
			res.Congestion.Retries)
		fmt.Printf("link layer:     %s\n", res.Link)
	}
	if !res.Done {
		fmt.Println("note:           run stopped before the workload halted")
	}
	if o.report {
		fmt.Println()
		fmt.Println(res.Report)
	}
	writeArtifact := func(path string, write func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return f.Close()
	}
	if err := writeArtifact(o.vcdPath, func(f *os.File) error {
		return trace.WriteSamplesVCD(f, cfg.Host.FP, res.Samples)
	}); err != nil {
		return err
	}
	return writeArtifact(o.jsonPath, func(f *os.File) error {
		// The structured run document: summary (final temps, windows/s,
		// digest, thermal lag) plus the per-window sample series.
		sum := trace.NewRunSummary(spec.Name, cfg.Host.FP, res, len(res.Samples), cfg.Golden)
		return trace.WriteRunJSON(f, cfg.Host.FP, sum, res.Samples)
	})
}
