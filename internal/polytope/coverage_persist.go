package polytope

// Coverage-set persistence: the empirical polytope construction runs
// hundreds of Nelder-Mead support-function sweeps per (basis, k) pair
// — seconds of work that is identical on every process start. This
// file gob-serialises CoverageSets and the process-wide iSWAP-root
// registry with a format version, explicit identity checks so a
// snapshot can never be replayed against the wrong basis, and atomic
// file writes.
//
// Only iSWAP-root sets (Root > 0) are persisted: they are the ones
// built empirically, and the root is enough to reconstruct the basis
// Gate on load. The exact sets (CNOT) rebuild in microseconds and
// carry no reconstructible basis identity, so persisting them would be
// all risk and no win.

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/gates"
	"repro/internal/weyl"
)

// coverageSnapshotVersion guards the on-disk format; bump on any
// change to the saved types.
const coverageSnapshotVersion = 1

type savedHalfspace struct {
	A [3]float64
	B float64
}

type savedRegion struct {
	K          int
	Cost       float64
	Label      string
	Halfspaces []savedHalfspace
}

type coverageSnapshot struct {
	Version     int
	Name        string
	Root        int
	BasisCoord  [3]float64
	PerGateCost float64
	Regions     []savedRegion
}

type coverageLibrary struct {
	Version int
	Sets    []coverageSnapshot
}

func (cs *CoverageSet) snapshot() (coverageSnapshot, error) {
	if cs.Root <= 0 {
		return coverageSnapshot{}, fmt.Errorf("polytope: only iSWAP-root coverage sets are persistable (set %q has no root identity)", cs.Name)
	}
	snap := coverageSnapshot{
		Version:     coverageSnapshotVersion,
		Name:        cs.Name,
		Root:        cs.Root,
		BasisCoord:  [3]float64{cs.BasisCoord.X, cs.BasisCoord.Y, cs.BasisCoord.Z},
		PerGateCost: cs.PerGateCost,
	}
	for _, r := range cs.Regions {
		sr := savedRegion{K: r.K, Cost: r.Cost, Label: r.Region.Label}
		for _, h := range r.Region.Halfspaces {
			sr.Halfspaces = append(sr.Halfspaces, savedHalfspace{A: h.A, B: h.B})
		}
		snap.Regions = append(snap.Regions, sr)
	}
	return snap, nil
}

func coverageFromSnapshot(snap coverageSnapshot) (*CoverageSet, error) {
	if snap.Version != coverageSnapshotVersion {
		return nil, fmt.Errorf("polytope: coverage snapshot version %d, want %d", snap.Version, coverageSnapshotVersion)
	}
	n := snap.Root
	if n <= 0 {
		return nil, fmt.Errorf("polytope: coverage snapshot has no root identity")
	}
	if want := fmt.Sprintf("iswap^1/%d", n); snap.Name != want {
		return nil, fmt.Errorf("polytope: coverage snapshot name %q does not match root %d (%q)", snap.Name, n, want)
	}
	if want := 1.0 / float64(n); math.Abs(snap.PerGateCost-want) > 1e-12 {
		return nil, fmt.Errorf("polytope: coverage snapshot per-gate cost %g does not match root %d", snap.PerGateCost, n)
	}
	want := weyl.RootISwapCoord(n)
	if math.Abs(snap.BasisCoord[0]-want.X) > 1e-9 ||
		math.Abs(snap.BasisCoord[1]-want.Y) > 1e-9 ||
		math.Abs(snap.BasisCoord[2]-want.Z) > 1e-9 {
		return nil, fmt.Errorf("polytope: coverage snapshot basis coordinate drifted from iswap^1/%d", n)
	}
	if len(snap.Regions) == 0 {
		return nil, fmt.Errorf("polytope: coverage snapshot for root %d has no regions", n)
	}
	// MinCost answers with the first region that contains a point, so
	// the regions must come cheapest first: K strictly increasing from
	// 0, each priced at K/n, every halfspace finite.
	for i, sr := range snap.Regions {
		if (i == 0 && sr.K != 0) || (i > 0 && sr.K <= snap.Regions[i-1].K) {
			return nil, fmt.Errorf("polytope: coverage snapshot for root %d: region %d has k=%d, want k strictly increasing from 0", n, i, sr.K)
		}
		if want := float64(sr.K) / float64(n); math.Abs(sr.Cost-want) > 1e-12 {
			return nil, fmt.Errorf("polytope: coverage snapshot for root %d: region k=%d costs %g, want %g", n, sr.K, sr.Cost, want)
		}
		for _, h := range sr.Halfspaces {
			if !finite(h.A[0]) || !finite(h.A[1]) || !finite(h.A[2]) || !finite(h.B) {
				return nil, fmt.Errorf("polytope: coverage snapshot for root %d: region k=%d has a non-finite halfspace", n, sr.K)
			}
		}
	}
	cs := &CoverageSet{
		Name:        snap.Name,
		Basis:       gates.SqrtISwapN(n),
		BasisCoord:  want,
		PerGateCost: snap.PerGateCost,
		Root:        n,
	}
	for _, sr := range snap.Regions {
		region := &Convex{Label: sr.Label}
		for _, h := range sr.Halfspaces {
			region.Halfspaces = append(region.Halfspaces, Halfspace{A: h.A, B: h.B})
		}
		cs.Regions = append(cs.Regions, CostedRegion{K: sr.K, Cost: sr.Cost, Region: region})
	}
	return cs, nil
}

// Save gob-serialises the coverage set. Only iSWAP-root sets can be
// saved (their basis is reconstructible from the root on load).
func (cs *CoverageSet) Save(w io.Writer) error {
	snap, err := cs.snapshot()
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&snap)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// LoadCoverageSet decodes a snapshot produced by CoverageSet.Save,
// validating the format version, the basis identity and the region
// order and prices, and rebuilding the basis gate from the recorded
// iSWAP root.
func LoadCoverageSet(r io.Reader) (*CoverageSet, error) {
	var snap coverageSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("polytope: decoding coverage snapshot: %w", err)
	}
	return coverageFromSnapshot(snap)
}

// --- Registry-level persistence (the NewISwapRootCoverage cache) ---

// RootCoverageCount returns how many iSWAP-root coverage sets the
// process registry currently holds.
func RootCoverageCount() int {
	iswapRootCacheMu.Lock()
	defer iswapRootCacheMu.Unlock()
	return len(iswapRootCache)
}

// SaveRootCoverage serialises every iSWAP-root coverage set currently
// cached in the process registry (sorted by root for determinism).
func SaveRootCoverage(w io.Writer) error {
	iswapRootCacheMu.Lock()
	roots := make([]int, 0, len(iswapRootCache))
	for n := range iswapRootCache {
		roots = append(roots, n)
	}
	sets := make([]*CoverageSet, 0, len(roots))
	sort.Ints(roots)
	for _, n := range roots {
		sets = append(sets, iswapRootCache[n])
	}
	iswapRootCacheMu.Unlock()

	lib := coverageLibrary{Version: coverageSnapshotVersion}
	for _, cs := range sets {
		snap, err := cs.snapshot()
		if err != nil {
			return err
		}
		lib.Sets = append(lib.Sets, snap)
	}
	return gob.NewEncoder(w).Encode(&lib)
}

// LoadRootCoverage merges a library produced by SaveRootCoverage into
// the registry, returning the number of sets inserted. Sets already in
// the registry win (they are at least as fresh as the snapshot); a
// snapshot that fails validation poisons nothing — the whole load is
// rejected before any insertion.
func LoadRootCoverage(r io.Reader) (int, error) {
	var lib coverageLibrary
	if err := gob.NewDecoder(r).Decode(&lib); err != nil {
		return 0, fmt.Errorf("polytope: decoding coverage library: %w", err)
	}
	if lib.Version != coverageSnapshotVersion {
		return 0, fmt.Errorf("polytope: coverage library version %d, want %d", lib.Version, coverageSnapshotVersion)
	}
	sets := make([]*CoverageSet, 0, len(lib.Sets))
	for _, snap := range lib.Sets {
		cs, err := coverageFromSnapshot(snap)
		if err != nil {
			return 0, err
		}
		sets = append(sets, cs)
	}
	n := 0
	iswapRootCacheMu.Lock()
	defer iswapRootCacheMu.Unlock()
	for _, cs := range sets {
		if _, ok := iswapRootCache[cs.Root]; ok {
			continue
		}
		iswapRootCache[cs.Root] = cs
		n++
	}
	return n, nil
}

// SaveRootCoverageFile writes the registry snapshot to path atomically
// (temp file + rename), so a crashed run never leaves a truncated
// snapshot behind.
func SaveRootCoverageFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".coverage-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveRootCoverage(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadRootCoverageFile merges a registry snapshot from path, returning
// the number of sets inserted. A missing file is not an error: it
// returns (0, nil) so cold and warm starts share one call site.
func LoadRootCoverageFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return LoadRootCoverage(f)
}

// WarmStartCoverageFile is the shared -coverage-file flow of the
// commands: load the registry snapshot from path (missing file = cold
// start), report the warm-start count to w, and return the matching
// save function for process exit.
func WarmStartCoverageFile(path string, w io.Writer) (save func() error, err error) {
	n, err := LoadRootCoverageFile(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "coverage sets: warm-started %d from %s\n", n, path)
	return func() error { return SaveRootCoverageFile(path) }, nil
}
