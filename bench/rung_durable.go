package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"disttrack/internal/durable"
	svc "disttrack/internal/service"
)

// rungDurable prices the durable plane, which no end-to-end workload turns
// on: the service rung's records through a server opened on a temporary
// data directory (fsync never, so the disk's sync latency stays out of it),
// the WAL bytes that leaves behind, and how long Close -> Open on the same
// directory takes.
func rungDurable(w *workload, seed int64, seconds float64, v values, service cost) error {
	dir, err := os.MkdirTemp("", "disttrack-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := svc.Config{DataDir: dir, Fsync: durable.FsyncNever}

	in := generate(w, seed, seconds)
	sys, err := boot(in, inproc, cfg)
	if err != nil {
		return err
	}
	if _, err := sys.warmUp(); err != nil {
		sys.close()
		return err
	}
	st := sys.runClosed(nil, -1)
	if st.err == nil && st.accepted != st.records {
		st.err = fmt.Errorf("accepted %d of %d records", st.accepted, st.records)
	}
	var walBytes int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "wal-") {
			if fi, err := d.Info(); err == nil {
				walBytes += fi.Size()
			}
		}
		return nil
	})
	sys.close()
	if st.err != nil {
		return fmt.Errorf("durable rung: %w", st.err)
	}

	t0 := time.Now()
	srv, err := svc.Open(cfg)
	if err != nil {
		return fmt.Errorf("durable rung: reopen: %w", err)
	}
	recover := time.Since(t0)
	recovered := srv.Registry().Count()
	srv.Close()
	if recovered != len(in.tenants) {
		return fmt.Errorf("durable rung: recovered %d tenants, want %d", recovered, len(in.tenants))
	}
	v["durable.wal_self_ns_per_record"] = costOf(st.wall, st.cpu, st.records).cpu - service.cpu
	v["durable.wal_bytes_per_record"] = float64(walBytes) / float64(in.totalRecords())
	v["durable.recover_ms"] = float64(recover.Microseconds()) / 1e3
	return nil
}
