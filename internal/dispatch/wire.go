package dispatch

// The gob wire protocol of the TCP transport. A connection belongs to
// one worker and serves any number of sequential jobs. The
// coordinator -> worker direction is strictly lockstep, so those
// messages need no envelope:
//
//	coordinator -> worker   wireJob{Kind, Spec}
//	repeat:
//	  coordinator -> worker wireLease{ID, Lo, Hi}
//	finally:
//	  coordinator -> worker wireLease{Done: true}
//
// The spec is everything a worker needs to prepare the job — for the
// MIRAGE kinds that includes the basis coverage set — so no worker
// state carries over from one job to the next. A worker that cannot
// prepare a job declines it loudly (msgReady.Err) and waits for the
// next one.
//
// The worker -> coordinator direction is a tagged union (wireMsg),
// because a worker executing a lease interleaves liveness heartbeats
// with its eventual results — the coordinator cannot know which
// arrives next:
//
//	worker -> coordinator   wireMsg{Kind: msgReady, Err}        answers wireJob; Err != "" declines
//	worker -> coordinator   wireMsg{Kind: msgHeartbeat, LeaseID, Done}
//	                                                            liveness ping while executing a lease;
//	                                                            Done counts items finished in that lease
//	worker -> coordinator   wireMsg{Kind: msgResults, LeaseID, Items}
//	                                                            answers wireLease
//	worker -> coordinator   wireMsg{Kind: msgReturned, LeaseID, Items}
//	                                                            graceful drain: partial results, the
//	                                                            rest of the lease is handed back
//	worker -> coordinator   wireMsg{Kind: msgEpilogue, Blob}    answers wireLease{Done: true}
//
// Specs, result blobs and epilogues are opaque byte slices: the job
// kinds (internal/distrib) define their contents. Scores ride in a
// dedicated field so the trial hot path never round-trips a float
// through a nested encoder; only the first trial of each layout row
// adds a blob, the layout the worker refined for that row.

// WireItem is one completed work item on the wire. Index is the work
// index; Score and Blob carry the payload as the job kind defines it;
// Err, when non-empty, reports the item's failure (it is consumed in
// deterministic index order like any local error).
type WireItem struct {
	Index int
	Score float64
	Blob  []byte
	Err   string
}

type wireJob struct {
	Kind string
	Spec []byte
}

type wireLease struct {
	ID     uint64
	Lo, Hi int
	Done   bool
}

// msgKind tags a worker -> coordinator wireMsg.
type msgKind uint8

const (
	msgReady msgKind = iota + 1
	msgHeartbeat
	msgResults
	msgReturned
	msgEpilogue
)

// wireMsg is the worker -> coordinator envelope; the fields used
// depend on Kind (see the protocol sketch above).
type wireMsg struct {
	Kind    msgKind
	Err     string
	LeaseID uint64
	Done    int
	Items   []WireItem
	Blob    []byte
}
