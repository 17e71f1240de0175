package bench

import (
	"strings"
	"testing"
)

func TestWarmFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       WarmFlags
		wantErr string // substring; empty = valid
	}{
		{"defaults", WarmFlags{Warm: true, Repeat: 1}, ""},
		{"repeat with warm tier", WarmFlags{Warm: true, Repeat: 3}, ""},
		{"cold single pass", WarmFlags{Warm: false, Repeat: 1}, ""},
		{"zero repeat", WarmFlags{Warm: true, Repeat: 0}, "-repeat"},
		{"negative repeat", WarmFlags{Warm: true, Repeat: -2}, "-repeat"},
		{"cold repeat", WarmFlags{Warm: false, Repeat: 2}, "-repeat 2 with -warm=false"},
	}
	for _, tc := range cases {
		err := tc.f.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestMergeRoutingFilesWarmFields: warm-transfer telemetry sums across
// fragments like the other fleet counters.
func TestMergeRoutingFilesWarmFields(t *testing.T) {
	frag := func(seq int, circ string, sends, skips int64) *RoutingBenchFile {
		return &RoutingBenchFile{
			Topology: "grid", Seed: 1, LayoutTrials: 2, RoutingTrials: 2,
			Rows: []RoutingRow{{Seq: seq, Circuit: circ, Router: "mirage"}},
			Fleet: &FleetEventStats{
				WarmSends: sends, WarmSkips: skips,
				WarmBytesSent: sends * 100, WarmBytesSkipped: skips * 100,
			},
		}
	}
	merged, err := MergeRoutingFiles([]*RoutingBenchFile{
		frag(0, "a", 4, 1),
		frag(1, "b", 2, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := merged.Fleet
	if fl.WarmSends != 6 || fl.WarmSkips != 7 || fl.WarmBytesSent != 600 || fl.WarmBytesSkipped != 700 {
		t.Errorf("warm fleet sums = (%d, %d, %d, %d), want (6, 7, 600, 700)",
			fl.WarmSends, fl.WarmSkips, fl.WarmBytesSent, fl.WarmBytesSkipped)
	}
}
