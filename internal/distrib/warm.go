package distrib

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/dispatch"
	"repro/internal/polytope"
)

// The fleet-wide warm tier. A Cluster keeps one hub-resident
// MasterCache holding the process's iSWAP-root coverage-set library,
// and every job — both KindTrials and KindBatch — ships it to workers
// through the dispatch warm-state handshake (dispatch.WarmSource), so
// a fresh worker skips the Nelder-Mead polytope construction
// (polytope.BuildEmpirical, seconds per basis). Decomposition costs
// themselves are not shipped: each job prices its circuit through a
// mirage.CostTable it builds from the spec, which is cheaper than
// shipping it.
//
// Determinism contract: a shipped coverage set is the coordinator's
// own, region for region, so warmth changes how fast a job starts but
// never what it returns — warm-vs-cold rows are pinned bit-identical
// by the e2e tests.

// MasterCache is the hub-resident master copy of the coverage-set
// library of a Cluster. It implements dispatch.WarmSource: Warm
// re-serialises the snapshot (bumping its version) only when the
// library grew, so persistent workers skip redundant transfers via the
// version handshake.
type MasterCache struct {
	mu      sync.Mutex
	version uint64
	snap    dispatch.WarmState
	snapCov int // coverage-set count at last snapshot build
	warmErr error

	// Logf, when set, receives warm-tier failure lines (benchsuite and
	// miraged point it at their log). Nil is silent.
	Logf func(format string, args ...any)
}

// NewMasterCache returns an empty master; its first Warm call
// snapshots the coverage library.
func NewMasterCache() *MasterCache { return &MasterCache{} }

// Warm implements dispatch.WarmSource for the MIRAGE job kinds.
func (m *MasterCache) Warm(kind string) (dispatch.WarmState, bool) {
	if kind != KindTrials && kind != KindBatch {
		return dispatch.WarmState{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refreshLocked(); err != nil {
		// A snapshot failure degrades to cold starts, loudly and once
		// per failure streak.
		if m.warmErr == nil || m.warmErr.Error() != err.Error() {
			m.logf("distrib: warm tier disabled for this job: %v", err)
		}
		m.warmErr = err
		return dispatch.WarmState{}, false
	}
	m.warmErr = nil
	return m.snap, true
}

// refreshLocked re-serialises the snapshot when the coverage library
// changed since the last build, bumping the version so workers holding
// the stale snapshot receive the new one.
func (m *MasterCache) refreshLocked() error {
	cov := polytope.RootCoverageCount()
	if m.snap.Blob != nil && cov == m.snapCov {
		return nil
	}
	var buf bytes.Buffer
	if err := polytope.SaveRootCoverage(&buf); err != nil {
		return err
	}
	m.version++
	m.snap = dispatch.WarmState{Version: m.version, Blob: buf.Bytes()}
	m.snapCov = cov
	return nil
}

func (m *MasterCache) logf(format string, args ...any) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

// WarmStats is a snapshot of the master's warm-tier telemetry.
type WarmStats struct {
	SnapshotVersion uint64
	CoverageSets    int // coverage sets in the current snapshot
}

// Stats snapshots the warm-tier telemetry.
func (m *MasterCache) Stats() WarmStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return WarmStats{SnapshotVersion: m.version, CoverageSets: m.snapCov}
}

// loadWarm is the worker-side receiving end: merge the shipped coverage
// library (nil means a cold start) into the process registry.
func loadWarm(warm []byte) error {
	if len(warm) == 0 {
		return nil
	}
	if _, err := polytope.LoadRootCoverage(bytes.NewReader(warm)); err != nil {
		return fmt.Errorf("distrib: loading warm coverage sets: %w", err)
	}
	return nil
}
