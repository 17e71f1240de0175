package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/distrib"
)

// fleet is the worker fleet of the fleet workload: a coordinator hub
// with a write-ahead journal, and in-process workers each serving one
// loopback TCP connection. The benchmark dials and accepts the
// connections itself and hands the hub side to Hub.AddConn, so a
// traced run can count the bytes on both ends.
type fleet struct {
	hub     *dispatch.Hub
	cluster *distrib.Cluster
	journal string
	wg      sync.WaitGroup
}

func startFleet(workers int, tr *tracer) (*fleet, error) {
	dir, err := os.MkdirTemp("", "mirbench-journal-")
	if err != nil {
		return nil, fmt.Errorf("creating the journal directory: %w", err)
	}
	jd, err := dispatch.OpenJournalDir(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fleet{hub: dispatch.NewHub(), journal: dir}
	f.hub.Journal = jd

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	defer ln.Close()
	handlers := tr.wrapHandlers(distrib.Handlers())
	for i := 0; i < workers; i++ {
		workerSide, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dialling worker %d: %w", i, err)
		}
		hubSide, err := ln.Accept()
		if err != nil {
			workerSide.Close()
			f.close()
			return nil, fmt.Errorf("accepting worker %d: %w", i, err)
		}
		f.hub.AddConn(tr.countConn(hubSide, toWorkers))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer workerSide.Close()
			// The worker's error is the hub's to report: a worker
			// lost mid-job fails or re-leases that job's items.
			_ = dispatch.ServeConn(tr.countConn(workerSide, toHub), handlers, nil)
		}()
	}
	if err := f.hub.WaitWorkers(workers, 10*time.Second); err != nil {
		f.close()
		return nil, err
	}
	f.cluster = distrib.NewCluster(f.hub)
	return f, nil
}

// close disconnects the workers, waits for their serve loops to end and
// removes the journal.
func (f *fleet) close() {
	f.hub.Close()
	f.wg.Wait()
	os.RemoveAll(f.journal)
}

// journalBytes is the size of the journal directory. An entry that
// cannot be read is left out of the count, so the walk never fails.
func (f *fleet) journalBytes() int64 {
	var n int64
	_ = filepath.WalkDir(f.journal, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
