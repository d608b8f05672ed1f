package main

import (
	"reflect"
	"testing"

	"thermemu/internal/scenario"
)

// texts lists every scenario a plan hands the program, in plan order.
func texts(pl *plan) []string {
	var out []string
	for _, inst := range pl.round {
		out = append(out, inst.text)
	}
	return append(out, pl.small...)
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(texts(a), texts(b)) {
			t.Errorf("%s: seed 7 generated different scenario text on a second call", w)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(texts(a), texts(b)) {
			t.Errorf("%s: seeds 1 and 2 generated the same instances", w)
		}
	}
}

// Every generated scenario lints clean, and sets only the design and run
// keys: no kernel selection, no fault injection, no digest or name.
func TestGeneratedScenariosLintClean(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2, 3} {
			pl, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range texts(pl) {
				s, err := scenario.Parse(text)
				if err != nil {
					t.Fatalf("%s seed %d: %v\n%s", w, seed, err, text)
				}
				if err := s.Lint(); err != nil {
					t.Errorf("%s seed %d: lint: %v\n%s", w, seed, err, text)
				}
				if ws := s.Warnings(); len(ws) > 0 {
					t.Errorf("%s seed %d: lint warnings %v", w, seed, ws)
				}
				if s.Blocks || s.Parallel || s.Speculate || s.Pipeline != 0 || s.Workers != 0 ||
					s.Fault != "" || s.Name != "" || s.Digest {
					t.Errorf("%s seed %d: scenario sets a key outside platform, workload, thermal and tm:\n%s", w, seed, text)
				}
			}
		}
	}
}

func TestGenerateRejectsUnknownWorkload(t *testing.T) {
	if _, err := generate("no-such-workload", 1); err == nil {
		t.Error("an unknown workload generated a plan")
	}
}
