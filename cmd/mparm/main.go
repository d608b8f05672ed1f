// Command mparm runs a workload on the signal-level cycle-accurate baseline
// kernel (the MPARM-class simulator the framework is compared against in
// Table 3) and reports both the run and the kernel's signal-management
// work — the overhead the FPGA emulator avoids.
//
//	mparm -cores 4 -workload matrix -n 12 -iters 2
package main

import (
	"flag"
	"fmt"
	"os"

	"thermemu"
	"thermemu/internal/emu"
	"thermemu/internal/mparm"
	"thermemu/internal/workloads"
)

func main() {
	var (
		cores    = flag.Int("cores", 4, "emulated cores")
		workload = flag.String("workload", "matrix", workloads.NamesHelp())
		n        = flag.Int("n", 12, "matrix dimension / FIR taps / histogram bins")
		iters    = flag.Int("iters", 2, "repetition count (sustained-load iterations)")
		size     = flag.Int("size", 32, "dithering image edge")
		words    = flag.Int("words", 64, "stream length (membound, fir, histogram) / pipeline items")
		ic       = flag.String("ic", "opb", "interconnect: opb | plb | custom | noc")
	)
	flag.Parse()
	if err := run(*cores, *workload, *n, *iters, *size, *words, *ic); err != nil {
		fmt.Fprintln(os.Stderr, "mparm:", err)
		os.Exit(1)
	}
}

func run(cores int, workload string, n, iters, size, words int, ic string) error {
	cfg := thermemu.DefaultPlatform(cores)
	switch ic {
	case "opb":
	case "plb":
		cfg.IC = emu.ICBusPLB
	case "custom":
		cfg.IC = emu.ICBusCustom
	case "noc":
		cfg.IC = emu.ICNoC
		cfg.NoC = emu.Table3NoC(cores)
	default:
		return fmt.Errorf("unknown interconnect %q", ic)
	}
	spec, err := workloads.Build(workload, workloads.Params{
		Cores: cores, PrivKB: cfg.PrivKB, N: n, Iters: iters, Size: size, Words: words,
	})
	if err != nil {
		return err
	}

	p, err := thermemu.LoadPlatform(cfg, spec)
	if err != nil {
		return err
	}
	k := mparm.New(p)
	cycles, done := k.Run(1 << 62)
	if err := p.Fault(); err != nil {
		return err
	}
	if done && spec.Verify != nil {
		if err := spec.Verify(p.ReadSharedWord); err != nil {
			return err
		}
	}
	if err := k.VerifyObserved(); err != nil {
		return err
	}
	st := k.Stats()
	fmt.Printf("workload:         %s (%s interconnect)\n", spec.Name, ic)
	fmt.Printf("cycles simulated: %d (done=%v, verified)\n", cycles, done)
	fmt.Printf("delta cycles:     %d (%.2f per clock)\n", st.DeltaCycles, float64(st.DeltaCycles)/float64(st.Cycles))
	fmt.Printf("process evals:    %d (%.1f per clock)\n", st.Evaluations, float64(st.Evaluations)/float64(st.Cycles))
	fmt.Printf("signal ops:       %d (%.1f per clock)\n", st.SignalOps, float64(st.SignalOps)/float64(st.Cycles))
	fmt.Printf("bank checksum:    %#x\n", k.BankChecksum())
	return nil
}
