package pool

import (
	"sync"
	"testing"
)

// workerScratch records which goroutine-local scratch instance served
// which indices, to verify the ownership contract: scratch(w) runs
// once per worker, its value never crosses goroutines, and every index
// is served by exactly one scratch.
type workerScratch struct {
	worker int
	served []int
}

func TestForEachWithScratchPerWorker(t *testing.T) {
	const workers, n = 4, 200
	var mu sync.Mutex
	var created []*workerScratch
	err := ForEachWith(workers, n,
		func(w int) *workerScratch {
			s := &workerScratch{worker: w}
			mu.Lock()
			created = append(created, s)
			mu.Unlock()
			return s
		},
		func(i int, s *workerScratch) error {
			s.served = append(s.served, i) // no lock: s is goroutine-local
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) > workers {
		t.Fatalf("scratch created %d times, want <= %d", len(created), workers)
	}
	seen := make([]bool, n)
	total := 0
	for _, s := range created {
		for _, i := range s.served {
			if seen[i] {
				t.Fatalf("index %d served twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("served %d indices, want %d", total, n)
	}
}

func TestForEachWithSerialSingleScratch(t *testing.T) {
	creations := 0
	count := 0
	err := ForEachWith(1, 50,
		func(w int) int {
			if w != 0 {
				t.Fatalf("serial scratch got worker id %d", w)
			}
			creations++
			return 7
		},
		func(i int, s int) error {
			if s != 7 {
				t.Fatalf("wrong scratch value %d", s)
			}
			count++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if creations != 1 || count != 50 {
		t.Fatalf("creations=%d count=%d, want 1 and 50", creations, count)
	}
}
