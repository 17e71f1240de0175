package dispatch

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScanJournalFile: a restarted coordinator scans whatever its
// journal directory holds, so any file is either rejected or scanned
// into a job, and the scan's truncation is final: a rescan of the
// truncated file reports no torn tail and recovers the same job.
func FuzzScanJournalFile(f *testing.F) {
	var valid []byte
	for _, rec := range []journalRec{
		{Rec: recJob, JobKind: "score", Spec: []byte("spec-bytes"), Max: 8},
		{Rec: recBatch, Items: wireItems(0, 4)},
		{Rec: recBatch, Items: []WireItem{{Index: 4, Err: "boom"}, {Index: 5, Blob: []byte{1, 2}}}},
		{Rec: recDone},
	} {
		frame, err := frameFor(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:5])
	path := filepath.Join(f.TempDir(), "job-00000.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := scanJournalFile(path)
		if err != nil {
			return
		}
		again, torn, err := scanJournalFile(path)
		if err != nil {
			t.Fatalf("rescan of a scanned journal failed: %v", err)
		}
		if torn {
			t.Fatal("rescan of a truncated journal found a torn tail")
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("rescan recovered %+v, first scan %+v", again, rec)
		}
	})
}
