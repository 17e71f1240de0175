package dispatch

// The warm-state tier: a coordinator-resident snapshot of shared job
// state (for MIRAGE, the root coverage-set library) that is shipped to
// workers inside the job send, so every job starts warm instead of
// cold. Snapshots are versioned, and the hub remembers which version
// each pooled connection last received: a persistent worker
// (ServeLoop) that already holds the current version gets a
// version-only reference instead of the blob — the transfer cost is
// paid once per snapshot version per worker, not once per job. The
// tier is strictly a performance layer: work items are deterministic
// functions of their index, so whether a worker ran warm or cold
// cannot change any result.

// WarmState is one versioned warm snapshot. Version must be non-zero
// and must change whenever Blob changes; Blob is opaque to the
// dispatch layer (the job kind defines its contents) and must be
// non-empty — gob cannot distinguish a nil slice from an empty one on
// the wire, and a nil blob is the "already held" handshake.
type WarmState struct {
	Version uint64
	Blob    []byte
}

// WarmSource supplies the current warm snapshot for a job kind; a
// kind with no warm state returns ok == false and the job is sent
// bare. Warm is called once per (connection, job) launch and must be
// safe for concurrent use. Implementations should memoise the encoded
// blob and bump Version only when the underlying state changed, so
// the per-connection skip logic can do its job.
type WarmSource interface {
	Warm(kind string) (ws WarmState, ok bool)
}

// resolveWarm interprets the warm fields of an incoming job on the
// worker, retaining shipped snapshots per kind so later version-only
// references resolve locally. An unresolvable reference is an error —
// the caller declines the job loudly and the coordinator re-ships
// next time.
func (w *serveState) resolveWarm(job wireJob) ([]byte, error) {
	if job.WarmVersion == 0 {
		return nil, nil
	}
	if len(job.WarmBlob) > 0 {
		if w.warmHeld == nil {
			w.warmHeld = make(map[string]WarmState)
		}
		w.warmHeld[job.Kind] = WarmState{Version: job.WarmVersion, Blob: job.WarmBlob}
		return job.WarmBlob, nil
	}
	held, ok := w.warmHeld[job.Kind]
	if !ok || held.Version != job.WarmVersion {
		return nil, &warmMissError{kind: job.Kind, want: job.WarmVersion, held: held.Version}
	}
	return held.Blob, nil
}

// warmMissError reports a version-only warm reference the worker
// cannot satisfy. Its message is the decline reason the coordinator
// sees; matching on the type lets tests pin the handshake.
type warmMissError struct {
	kind string
	want uint64
	held uint64
}

func (e *warmMissError) Error() string {
	if e.held == 0 {
		return "dispatch: job \"" + e.kind + "\" references a warm snapshot this worker never received"
	}
	return "dispatch: job \"" + e.kind + "\" references a warm snapshot version this worker does not hold"
}
