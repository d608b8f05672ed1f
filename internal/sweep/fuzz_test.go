package sweep

import (
	"os"
	"testing"
)

// FuzzSweepSpec holds the spec parser to its contract: malformed input —
// truncated files, duplicate sections, binary garbage — errors cleanly
// instead of panicking, and any spec it accepts carries a non-negative
// warm-up window count and only positive frequencies.
func FuzzSweepSpec(f *testing.F) {
	f.Add("")
	f.Add(Header)
	f.Add(specAll)
	f.Add(Header + "\n[base]\nscenario = noc-sustained.scn\n[axis floorplan]\nvalues = arm11, arm7\n")
	f.Add(Header + "\n[axis scenario]\nvalues = a.scn,,b.scn\n")
	f.Add(Header + "\n[sweep]\nwarmup-windows = -1\n")
	f.Add(Header + "\n[axis freq-mhz]\nvalues = 0, 100\n")
	f.Add(Header + "\n[axis freq-mhz]\nvalues = 99999999999999999999\n")
	f.Add(Header + "\n[axis voltage\n")
	f.Add("thermemu-sweep v9\n")
	if src, err := os.ReadFile("../../examples/scenarios/noc-grid.sweep"); err == nil {
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := ParseSpec(src)
		if err != nil {
			if sp != nil {
				t.Fatalf("rejected input returned a spec: %+v", sp)
			}
			return // rejected is fine; panicking is not
		}
		if sp.WarmupWindows < 0 {
			t.Fatalf("accepted negative warmup-windows %d\ninput: %q", sp.WarmupWindows, src)
		}
		for _, mhz := range sp.FreqsMHz {
			if mhz <= 0 {
				t.Fatalf("accepted non-positive frequency %d MHz\ninput: %q", mhz, src)
			}
		}
	})
}
