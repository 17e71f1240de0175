package polytope

import (
	"bytes"
	"testing"

	"repro/internal/weyl"
)

// The coverage loaders read bytes from job specs and from
// -coverage-file, so both are fuzzed: any input is either rejected
// with an error or yields sets that price points and survive a save
// and reload. The seed corpora under testdata/fuzz hold valid root-2
// bytes plus truncated and bit-flipped copies.

// probe is a chamber point every accepted set must be able to price.
var probe = weyl.Coordinate{X: 0.5, Y: 0.3, Z: 0.1}

func checkAccepted(t *testing.T, cs *CoverageSet) {
	t.Helper()
	cs.CostOf(probe, true)
	var buf bytes.Buffer
	if err := cs.Save(&buf); err != nil {
		t.Fatalf("accepted set %q does not save: %v", cs.Name, err)
	}
	again, err := LoadCoverageSet(&buf)
	if err != nil {
		t.Fatalf("accepted set %q does not reload: %v", cs.Name, err)
	}
	if len(again.Regions) != len(cs.Regions) {
		t.Fatalf("reload of %q has %d regions, want %d", cs.Name, len(again.Regions), len(cs.Regions))
	}
}

func FuzzLoadCoverageSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := LoadCoverageSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAccepted(t, cs)
	})
}

func FuzzLoadRootCoverage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The loader merges into the process registry; run each input
		// against an empty one so no fuzzed set outlives its call.
		withColdRegistry(t, func() {
			n, err := LoadRootCoverage(bytes.NewReader(data))
			if err != nil {
				if got := RootCoverageCount(); got != 0 {
					t.Fatalf("rejected library inserted %d sets", got)
				}
				return
			}
			if got := RootCoverageCount(); got != n {
				t.Fatalf("load reported %d sets, registry holds %d", n, got)
			}
			iswapRootCacheMu.Lock()
			sets := make([]*CoverageSet, 0, len(iswapRootCache))
			for _, cs := range iswapRootCache {
				sets = append(sets, cs)
			}
			iswapRootCacheMu.Unlock()
			for _, cs := range sets {
				checkAccepted(t, cs)
			}
		})
	})
}
