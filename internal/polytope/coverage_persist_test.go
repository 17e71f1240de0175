package polytope

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/weyl"
)

func TestCoverageSetSaveLoadRoundTrip(t *testing.T) {
	orig := NewISwapRootCoverage(2)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadCoverageSet(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Name != orig.Name || loaded.Root != orig.Root ||
		loaded.PerGateCost != orig.PerGateCost || len(loaded.Regions) != len(orig.Regions) {
		t.Fatalf("round trip changed identity: %+v", loaded)
	}
	if !loaded.Basis.Matrix().EqualApprox(orig.Basis.Matrix(), 1e-15) {
		t.Fatal("round trip changed the basis gate")
	}
	// The loaded set must answer cost queries identically.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		c := weyl.HaarSample(rng)
		for _, mirror := range []bool{false, true} {
			ro, okO := orig.MinCost(c, mirror)
			rl, okL := loaded.MinCost(c, mirror)
			if okO != okL || ro.K != rl.K || ro.Cost != rl.Cost {
				t.Fatalf("MinCost(%v, mirror=%v) diverged: (%v,%v) vs (%v,%v)",
					c, mirror, ro, okO, rl, okL)
			}
		}
	}
}

func TestCoverageSetSaveRefusesNonRootSets(t *testing.T) {
	var buf bytes.Buffer
	if err := NewCNOTCoverage().Save(&buf); err == nil {
		t.Fatal("Save accepted a coverage set with no root identity")
	}
}

func TestLoadCoverageSetRejectsTamperedIdentity(t *testing.T) {
	snap, err := NewISwapRootCoverage(2).snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*coverageSnapshot)
	}{
		{"version", func(s *coverageSnapshot) { s.Version = coverageSnapshotVersion + 1 }},
		{"name", func(s *coverageSnapshot) { s.Name = "iswap^1/3" }},
		{"cost", func(s *coverageSnapshot) { s.PerGateCost = 0.25 }},
		{"coord", func(s *coverageSnapshot) { s.BasisCoord[0] += 0.1 }},
		{"regions", func(s *coverageSnapshot) { s.Regions = nil }},
	}
	for _, tc := range cases {
		bad := snap
		bad.Regions = append([]savedRegion(nil), snap.Regions...)
		tc.mutate(&bad)
		if _, err := coverageFromSnapshot(bad); err == nil {
			t.Errorf("%s: tampered snapshot was accepted", tc.name)
		}
	}
}

func TestRootCoverageRegistryFileRoundTrip(t *testing.T) {
	NewISwapRootCoverage(2) // ensure at least one registry entry
	path := filepath.Join(t.TempDir(), "coverage.gob")

	if err := SaveRootCoverageFile(path); err != nil {
		t.Fatalf("SaveRootCoverageFile: %v", err)
	}
	// Existing entries win: loading into the warm registry inserts 0.
	if n, err := LoadRootCoverageFile(path); err != nil || n != 0 {
		t.Fatalf("warm load: n=%d err=%v, want 0/nil", n, err)
	}

	// A cold registry picks the sets up from the file.
	iswapRootCacheMu.Lock()
	saved := iswapRootCache
	iswapRootCache = map[int]*CoverageSet{}
	iswapRootCacheMu.Unlock()
	defer func() {
		iswapRootCacheMu.Lock()
		iswapRootCache = saved
		iswapRootCacheMu.Unlock()
	}()

	n, err := LoadRootCoverageFile(path)
	if err != nil || n < 1 {
		t.Fatalf("cold load: n=%d err=%v", n, err)
	}
	// NewISwapRootCoverage must now serve the loaded set without
	// rebuilding (pointer identity through the registry).
	iswapRootCacheMu.Lock()
	fromFile := iswapRootCache[2]
	iswapRootCacheMu.Unlock()
	if got := NewISwapRootCoverage(2); got != fromFile {
		t.Fatal("registry rebuilt a set that the snapshot already provided")
	}
}

func TestLoadRootCoverageFileMissingIsNotAnError(t *testing.T) {
	n, err := LoadRootCoverageFile(filepath.Join(t.TempDir(), "absent.gob"))
	if n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v, want 0/nil", n, err)
	}
}

func TestLoadRootCoverageRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRootCoverageFile(path); err == nil {
		t.Fatal("garbage snapshot was accepted")
	}
}

// withColdRegistry runs f against an empty iSWAP-root registry and
// restores the real one afterwards.
func withColdRegistry(t *testing.T, f func()) {
	t.Helper()
	iswapRootCacheMu.Lock()
	saved := iswapRootCache
	iswapRootCache = map[int]*CoverageSet{}
	iswapRootCacheMu.Unlock()
	defer func() {
		iswapRootCacheMu.Lock()
		iswapRootCache = saved
		iswapRootCacheMu.Unlock()
	}()
	f()
}

func encodeLibrary(t *testing.T, sets ...coverageSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	lib := coverageLibrary{Version: coverageSnapshotVersion, Sets: sets}
	if err := gob.NewEncoder(&buf).Encode(&lib); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCostCacheLoadKeepsFresherEntries: the coverage registry is the
// cost data that still persists, and a set already in it wins over a
// snapshot's set for the same root — the loaded copy is dropped, not
// swapped in, even when it differs.
func TestCostCacheLoadKeepsFresherEntries(t *testing.T) {
	live := NewISwapRootCoverage(2)
	snap, err := live.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Regions = snap.Regions[:len(snap.Regions)-1]
	if len(snap.Regions) == 0 {
		t.Fatal("fixture degenerate: sqrt-iSWAP set has a single region")
	}
	n, err := LoadRootCoverage(bytes.NewReader(encodeLibrary(t, snap)))
	if err != nil || n != 0 {
		t.Fatalf("load over a held root: n=%d err=%v, want 0/nil", n, err)
	}
	if got := NewISwapRootCoverage(2); got != live || len(got.Regions) != len(live.Regions) {
		t.Fatal("registry entry replaced by the snapshot's copy")
	}
}

// TestCostCacheSnapshotBasisGuard: a persisted library must never be
// replayed against the wrong basis, and one set that fails its
// identity check rejects the whole library before anything is
// inserted — a cold registry stays empty.
func TestCostCacheSnapshotBasisGuard(t *testing.T) {
	good, err := NewISwapRootCoverage(2).snapshot()
	if err != nil {
		t.Fatal(err)
	}
	drifted := good
	drifted.BasisCoord[0] += 0.1
	withColdRegistry(t, func() {
		if _, err := LoadRootCoverage(bytes.NewReader(encodeLibrary(t, good, drifted))); err == nil {
			t.Fatal("library with a drifted basis coordinate was accepted")
		}
		if n := RootCoverageCount(); n != 0 {
			t.Fatalf("rejected library inserted %d sets", n)
		}
		// The same library without the drifted set loads.
		if n, err := LoadRootCoverage(bytes.NewReader(encodeLibrary(t, good))); err != nil || n != 1 {
			t.Fatalf("same-basis load: n=%d err=%v, want 1/nil", n, err)
		}
	})
}

// TestLoadCoverageSetRejectsMisorderedRegions: MinCost prices a point
// by the first region that contains it, so a snapshot whose regions
// are out of order — the full chamber first — would price every gate
// at the maximum k. Such a snapshot, a mispriced region and a
// non-finite halfspace are all rejected, through the set and the
// library loaders alike.
func TestLoadCoverageSetRejectsMisorderedRegions(t *testing.T) {
	good, err := NewISwapRootCoverage(2).snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*coverageSnapshot)
	}{
		{"reversed", func(s *coverageSnapshot) {
			for i, j := 0, len(s.Regions)-1; i < j; i, j = i+1, j-1 {
				s.Regions[i], s.Regions[j] = s.Regions[j], s.Regions[i]
			}
		}},
		{"nan halfspace", func(s *coverageSnapshot) {
			r := &s.Regions[len(s.Regions)-1]
			r.Halfspaces = append([]savedHalfspace(nil), r.Halfspaces...)
			r.Halfspaces[0].A[1] = math.NaN()
		}},
		{"infinite offset", func(s *coverageSnapshot) {
			r := &s.Regions[1]
			r.Halfspaces = append([]savedHalfspace(nil), r.Halfspaces...)
			r.Halfspaces[0].B = math.Inf(1)
		}},
		{"mispriced", func(s *coverageSnapshot) { s.Regions[1].Cost = 0 }},
		{"repeated k", func(s *coverageSnapshot) { s.Regions[2].K = s.Regions[1].K }},
		{"not from zero", func(s *coverageSnapshot) { s.Regions = s.Regions[1:] }},
	}
	for _, tc := range cases {
		bad := good
		bad.Regions = append([]savedRegion(nil), good.Regions...)
		tc.mutate(&bad)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&bad); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCoverageSet(&buf); err == nil {
			t.Errorf("%s: LoadCoverageSet accepted the snapshot", tc.name)
		}
		withColdRegistry(t, func() {
			if _, err := LoadRootCoverage(bytes.NewReader(encodeLibrary(t, bad))); err == nil {
				t.Errorf("%s: LoadRootCoverage accepted the library", tc.name)
			}
			if n := RootCoverageCount(); n != 0 {
				t.Errorf("%s: rejected library inserted %d sets", tc.name, n)
			}
		})
	}
	if _, err := coverageFromSnapshot(good); err != nil {
		t.Fatalf("fixture: the untouched snapshot is rejected: %v", err)
	}
}
