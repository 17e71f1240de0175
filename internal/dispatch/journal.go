package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The write-ahead job journal makes a coordinator crash survivable:
// before a job launches, its gob-encoded spec is persisted, and every
// result batch is appended (and fsync'd) BEFORE it is handed to the
// queue's consumer. A restarted coordinator replays the journal into a
// fresh Queue — already-banked indices are marked done, only the
// unfinished remainder is re-granted — and, because the queue consumes
// in strict index order, the recovered run emits exactly the rows an
// uninterrupted run would have.
//
// File format: one file per job, named job-NNNNN.wal where NNNNN is
// the job's position in the coordinator's serial job sequence. Each
// file is a sequence of frames:
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC32 (IEEE) of the payload]
//	[payload: one self-contained gob-encoded journalRec]
//
// The first frame records the job (kind, spec, index count); each
// subsequent frame is either a result batch or the final done marker.
// A torn final frame (short write at crash time) fails the length or
// CRC check; the scan truncates the file back to the last whole frame
// and replays the valid prefix — write-ahead logging's standard
// contract. Epilogues are not journaled: RunJob returns those of the
// workers that ran part of the job in this process only.
const journalFrameHeader = 8

// maxJournalFrame bounds a single frame so a corrupt length prefix
// cannot drive a multi-gigabyte allocation during the scan.
const maxJournalFrame = 1 << 30

type journalRecKind uint8

const (
	recJob   journalRecKind = 1
	recBatch journalRecKind = 2
	recDone  journalRecKind = 3
)

// journalRec is the single frame payload type. A fresh gob encoder is
// used per frame so every frame is self-contained and the scan can
// decode any valid prefix.
type journalRec struct {
	Rec     journalRecKind
	JobKind string
	Spec    []byte
	Max     int
	Items   []WireItem
}

// RecoveredJob is one journaled job reconstructed by OpenJournalDir:
// its identity (kind, spec, index count), every result batch banked
// before the crash, and whether the job had already completed.
type RecoveredJob struct {
	Seq   int
	Path  string
	Kind  string
	Spec  []byte
	Max   int
	Items []WireItem
	Done  bool
}

// JournalDir is a directory of per-job write-ahead logs. A coordinator
// opens it once at startup (recovering any previous run's state) and
// hands it to the Hub; RunJob then journals each job under the hub's
// job lock, so journal sequence numbers follow the serial job order —
// the property that lets a restarted coordinator running the same
// deterministic suite match journal files to jobs by position alone.
type JournalDir struct {
	dir string

	mu        sync.Mutex
	seq       int
	recovered map[int]*RecoveredJob
	truncated int
}

// OpenJournalDir opens (creating if needed) a journal directory and
// scans every job-*.wal file in it: torn or corrupt tails are
// truncated back to the last whole frame, and the valid prefix of each
// file becomes a RecoveredJob awaiting replay by the matching RunJob
// call of the restarted suite.
func OpenJournalDir(dir string) (*JournalDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: opening journal dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "job-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: scanning journal dir %s: %w", dir, err)
	}
	sort.Strings(names)
	jd := &JournalDir{dir: dir, recovered: make(map[int]*RecoveredJob)}
	for _, path := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(path), "job-%d.wal", &seq); err != nil {
			return nil, fmt.Errorf("dispatch: journal dir %s holds unrecognised file %s", dir, filepath.Base(path))
		}
		rec, truncated, err := scanJournalFile(path)
		if err != nil {
			var empty errJournalEmpty
			if errors.As(err, &empty) {
				jd.truncated++
				continue
			}
			return nil, err
		}
		rec.Seq = seq
		jd.recovered[seq] = rec
		if truncated {
			jd.truncated++
		}
	}
	return jd, nil
}

// Recovered returns how many journaled jobs from a previous run await
// replay.
func (jd *JournalDir) Recovered() int {
	jd.mu.Lock()
	defer jd.mu.Unlock()
	return len(jd.recovered)
}

// TruncatedFrames returns how many files had a torn or corrupt tail
// truncated during the opening scan.
func (jd *JournalDir) TruncatedFrames() int {
	jd.mu.Lock()
	defer jd.mu.Unlock()
	return jd.truncated
}

// begin journals the start of the next job in the serial sequence. If
// the opening scan recovered a journal at this position, the job's
// identity must match byte-for-byte — a mismatch means the suite is
// not deterministic (or the directory belongs to a different run) and
// is a loud error, never a silent wrong-result replay. The returned
// writer is nil when the recovered job already completed (pure
// replay, nothing further to append).
func (jd *JournalDir) begin(kind string, spec []byte, max int) (*jobJournal, *RecoveredJob, error) {
	jd.mu.Lock()
	defer jd.mu.Unlock()
	seq := jd.seq
	jd.seq++
	if rec, ok := jd.recovered[seq]; ok {
		delete(jd.recovered, seq)
		if rec.Kind != kind || rec.Max != max || !bytes.Equal(rec.Spec, spec) {
			return nil, nil, fmt.Errorf(
				"dispatch: journal %s records job %d as kind %q over %d items but the restarted run submitted kind %q over %d items with a %s spec — the suite is not deterministic or the journal belongs to a different run",
				rec.Path, seq, rec.Kind, rec.Max, kind, max, specDiff(rec.Spec, spec))
		}
		if rec.Done {
			return nil, rec, nil
		}
		f, err := os.OpenFile(rec.Path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("dispatch: reopening journal %s for resume: %w", rec.Path, err)
		}
		return &jobJournal{f: f, path: rec.Path}, rec, nil
	}
	path := filepath.Join(jd.dir, fmt.Sprintf("job-%05d.wal", seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: creating journal %s: %w", path, err)
	}
	jj := &jobJournal{f: f, path: path}
	if err := jj.append(journalRec{Rec: recJob, JobKind: kind, Spec: spec, Max: max}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, nil, err
	}
	return jj, nil, nil
}

func specDiff(a, b []byte) string {
	if len(a) != len(b) {
		return fmt.Sprintf("different-length (%d vs %d byte)", len(a), len(b))
	}
	return "same-length but different"
}

// scanJournalFile reads one job WAL, validating frame by frame. The
// first invalid frame (short header, oversized or short payload, CRC
// mismatch, undecodable gob) marks the torn tail: the file is
// truncated back to the end of the last valid frame and the prefix is
// returned. Only the first frame may (and must) be the job record.
func scanJournalFile(path string) (*RecoveredJob, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("dispatch: reading journal %s: %w", path, err)
	}
	rec := &RecoveredJob{Path: path}
	off, valid := 0, 0
	torn := false
	for off < len(data) {
		if off+journalFrameHeader > len(data) {
			torn = true
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxJournalFrame || off+journalFrameHeader+int(n) > len(data) {
			torn = true
			break
		}
		payload := data[off+journalFrameHeader : off+journalFrameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		var r journalRec
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&r); err != nil {
			torn = true
			break
		}
		switch {
		case valid == 0:
			if r.Rec != recJob {
				return nil, false, fmt.Errorf("dispatch: journal %s does not start with a job record (kind %d)", path, r.Rec)
			}
			rec.Kind, rec.Spec, rec.Max = r.JobKind, r.Spec, r.Max
		case r.Rec == recBatch:
			rec.Items = append(rec.Items, r.Items...)
		case r.Rec == recDone:
			rec.Done = true
		default:
			return nil, false, fmt.Errorf("dispatch: journal %s frame at offset %d has unknown record kind %d", path, off, r.Rec)
		}
		off += journalFrameHeader + int(n)
		valid = off
	}
	if valid == 0 && torn {
		// Not even the job record survived: the crash landed inside the
		// very first append. The file is useless; remove it so the
		// restarted job starts a fresh journal at this position.
		if err := os.Remove(path); err != nil {
			return nil, false, fmt.Errorf("dispatch: removing torn journal %s: %w", path, err)
		}
		return nil, true, errJournalEmpty{path}
	}
	if torn {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, false, fmt.Errorf("dispatch: truncating torn journal %s to %d bytes: %w", path, valid, err)
		}
	}
	return rec, torn, nil
}

// errJournalEmpty marks a journal whose very first frame was torn;
// OpenJournalDir treats it as "no journal at this position".
type errJournalEmpty struct{ path string }

func (e errJournalEmpty) Error() string {
	return fmt.Sprintf("dispatch: journal %s torn before its job record", e.path)
}

// jobJournal is the append side of one job's WAL. Appends are
// serialised by a mutex (result batches arrive from concurrent
// pumpers) and fsync'd before returning — a batch is only handed to
// the queue after its frame is durable, which is what makes the log
// write-ahead.
type jobJournal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	dead bool
}

func frameFor(rec journalRec) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return nil, fmt.Errorf("dispatch: encoding journal record: %w", err)
	}
	frame := make([]byte, journalFrameHeader+payload.Len())
	binary.LittleEndian.PutUint32(frame, uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[journalFrameHeader:], payload.Bytes())
	return frame, nil
}

func (j *jobJournal) append(rec journalRec) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return nil
	}
	frame, err := frameFor(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("dispatch: appending to journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dispatch: syncing journal %s: %w", j.path, err)
	}
	return nil
}

// appendBatch journals one consumed result batch.
func (j *jobJournal) appendBatch(items []WireItem) error {
	return j.append(journalRec{Rec: recBatch, Items: items})
}

// finish journals the job's completion marker; a journal holding a
// done record replays without re-executing anything.
func (j *jobJournal) finish() error {
	return j.append(journalRec{Rec: recDone})
}

// tear writes only the first half of a valid batch frame and marks the
// journal dead — the hub-side chaos injection (CrashOnResultBatch)
// uses it to fabricate, deterministically and in-process, exactly the
// torn tail a SIGKILL mid-write would leave behind.
func (j *jobJournal) tear(items []WireItem) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return nil
	}
	j.dead = true
	frame, err := frameFor(journalRec{Rec: recBatch, Items: items})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame[:len(frame)/2]); err != nil {
		return fmt.Errorf("dispatch: tearing journal %s: %w", j.path, err)
	}
	return j.f.Sync()
}

func (j *jobJournal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	j.dead = true
}
