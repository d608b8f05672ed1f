package main

import (
	"reflect"
	"strings"
	"testing"

	"thermemu/internal/scenario"
)

// flagCases maps scenario-writing flag sets to the Scenario they must build:
// scenario.New with the listed edits.
var flagCases = []struct {
	args []string
	edit func(s *scenario.Scenario)
}{
	{nil, func(*scenario.Scenario) {}},
	{[]string{"-ic", "noc", "-noc", "ring:4"}, func(s *scenario.Scenario) { s.IC = "noc:ring:4" }},
	{[]string{"-ic", "noc"}, func(s *scenario.Scenario) { s.IC = "noc:pair" }},
	{[]string{"-ic", "plb", "-noc", "ring:4"}, func(s *scenario.Scenario) { s.IC = "plb" }},
	{[]string{"-tm"}, func(s *scenario.Scenario) { s.Policy = "threshold-dfs" }},
	{[]string{"-freq", "100"}, func(s *scenario.Scenario) { s.FreqMHz = 100 }},
	{[]string{"-workers", "2"}, func(s *scenario.Scenario) { s.Workers = 2 }},
	{[]string{"-cells", "60"}, func(s *scenario.Scenario) { s.Cells = 60 }},
	{[]string{"-window", "0.25"}, func(s *scenario.Scenario) { s.WindowMs = 0.25 }},
	{[]string{"-pipeline", "2"}, func(s *scenario.Scenario) { s.Pipeline = 2 }},
	{[]string{"-cores", "2", "-workload", "fir", "-n", "8", "-iters", "3", "-size", "32", "-words", "128"},
		func(s *scenario.Scenario) {
			s.Cores, s.Workload, s.N, s.Iters, s.Size, s.Words = 2, "fir", 8, 3, 32, 128
		}},
	{[]string{"-blocks", "-timescale", "10"}, func(s *scenario.Scenario) { s.Blocks, s.Timescale = true, 10 }},
	{[]string{"-fault", "drop=0.01", "-fault-seed", "7"}, func(s *scenario.Scenario) { s.Fault, s.FaultSeed = "drop=0.01", 7 }},
}

// TestFlagsBuildScenario: the platform/workload/thermal flags build exactly
// the Scenario a file with the same settings parses to, every such Scenario
// lints clean, and -speculate is refused as an unknown flag.
func TestFlagsBuildScenario(t *testing.T) {
	for _, c := range flagCases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			got, o, err := parseArgs(c.args)
			if err != nil {
				t.Fatal(err)
			}
			if o.scenPath != "" {
				t.Fatalf("flag run reports scenario file %q", o.scenPath)
			}
			want := scenario.New()
			c.edit(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("flags built\n%+v\nwant\n%+v", got, want)
			}
			if err := got.Lint(); err != nil {
				t.Fatalf("flag-built scenario does not lint: %v", err)
			}
		})
	}
	// The retired speculative kernel's flag is gone, not ignored.
	t.Run("-speculate", func(t *testing.T) {
		if _, _, err := parseArgs([]string{"-speculate"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("err = %v, want -speculate refused as an unknown flag", err)
		}
	})
}

// TestScenarioFlagConflicts: with -scenario every scenario-writing flag is
// refused (the file owns those settings), while run-control flags combine
// freely with it and the file becomes the Scenario.
func TestScenarioFlagConflicts(t *testing.T) {
	const file = "../../examples/scenarios/fir.scn"
	for _, c := range flagCases[1:] {
		args := append([]string{"-scenario", file}, c.args...)
		if _, _, err := parseArgs(args); err == nil || !strings.Contains(err.Error(), "conflicts with -scenario") {
			t.Errorf("%v: err = %v, want a -scenario conflict", args, err)
		}
	}
	s, o, err := parseArgs([]string{"-scenario", file, "-digest", "-csv", "out.csv", "-checkpoint-every", "3"})
	if err != nil {
		t.Fatalf("run-control flags refused with -scenario: %v", err)
	}
	if s.Workload != "fir" || o.scenPath != file || !o.digest || o.csvPath != "out.csv" || o.ckptEvery != 3 {
		t.Fatalf("parsed %+v / %+v", s, o)
	}
}
