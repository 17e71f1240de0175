package dispatch

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestFleetStatsAddSumsEveryField: Add is the hub's counting rule, so
// a counter it leaves out would silently read zero in every fleet
// block.
func TestFleetStatsAddSumsEveryField(t *testing.T) {
	var a, b FleetStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add left %s at %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestFleetStatsJSONKeys pins the `fleet` object's keys: CI's jq
// assertions and existing BENCH_routing.json files read these names.
func TestFleetStatsJSONKeys(t *testing.T) {
	data, err := json.Marshal(FleetStats{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"decode_faults", "degraded", "disconnects", "local_items", "poisoned",
		"reconnects", "recovered", "rejected", "releases", "revocations"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("fleet keys = %v, want %v", keys, want)
	}
}
