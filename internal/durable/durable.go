// Package durable is the stdlib-only persistence layer under the service:
// a per-tenant segmented ingest WAL plus checkpoint files, giving trackd
// crash recovery (docs/durability.md).
//
// Layout under the data directory:
//
//	tenants/<name>/meta.json          tenant config (written at create)
//	tenants/<name>/wal-<seq20>.log    WAL segments; <seq20> is the first
//	                                  record sequence in the segment
//	tenants/<name>/ckpt-<seq20>.ckpt  checkpoints; <seq20> is the highest
//	                                  WAL sequence the state covers
//	tenants/<name>/*.corrupt          quarantined checkpoints
//
// The recovery invariant: a checkpoint with cover sequence S plus the WAL
// records with sequence > S reconstruct exactly the acknowledged ingest
// prefix. The newest checkpoints are kept (two by default) and WAL
// segments are deleted only once covered by the *oldest kept* checkpoint,
// so falling back from a corrupt newest checkpoint still finds the tail it
// needs.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// FsyncMode says when WAL appends reach stable storage.
type FsyncMode int

const (
	// FsyncInterval syncs at most once per fsyncEvery (the default):
	// bounded data loss, negligible overhead.
	FsyncInterval FsyncMode = iota
	// FsyncAlways syncs every append: zero acknowledged-record loss, pays
	// one fsync per (tenant, site) group inside the ingest call.
	FsyncAlways
	// FsyncNever leaves flushing to the OS: fastest, loses the page cache
	// on power failure (a clean process crash loses nothing).
	FsyncNever
)

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync mode %q (want always, interval or never)", s)
	}
}

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options tunes a Store; zero values select the defaults.
type Options struct {
	Fsync        FsyncMode
	SegmentBytes int64 // WAL segment roll size (default 4 MiB)
	Keep         int   // checkpoints retained per tenant (default 2)
}

// fsyncEvery is the FsyncInterval mode's sync cadence.
const fsyncEvery = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Keep <= 0 {
		o.Keep = 2
	}
	return o
}

// Store is a handle on one data directory. Its counters total the WAL
// work of every tenant it has opened, deleted tenants included, so they
// never go backwards.
type Store struct {
	dir  string
	opts Options

	appended atomic.Int64 // WAL records appended
	fsyncs   atomic.Int64 // WAL fsyncs issued
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("durable: empty data directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "tenants"), 0o755); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	return &Store{dir: dir, opts: opts.withDefaults()}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// AppendedRecords returns the WAL records appended through the store.
func (s *Store) AppendedRecords() int64 { return s.appended.Load() }

// Fsyncs returns the WAL fsyncs issued through the store.
func (s *Store) Fsyncs() int64 { return s.fsyncs.Load() }

// ListTenants returns the names of tenants with a durable directory,
// sorted.
func (s *Store) ListTenants() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "tenants"))
	if err != nil {
		return nil, fmt.Errorf("durable: list tenants: %w", err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Tenant returns the handle for one tenant (no I/O). It rejects names that
// could escape the tenants directory; the service's own validation is
// stricter, this is defense in depth.
func (s *Store) Tenant(name string) (*Tenant, error) {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("durable: invalid tenant name %q", name)
	}
	return &Tenant{
		store: s,
		name:  name,
		dir:   filepath.Join(s.dir, "tenants", name),
	}, nil
}

// Tenant is the per-tenant durable state: a directory, a WAL and a
// checkpoint chain. WAL appends are internally serialized; everything else
// is meant for the single recovery/checkpoint goroutine.
type Tenant struct {
	store *Store
	name  string
	dir   string
	wal   *wal
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Create makes the tenant directory and persists its config (meta.json,
// written atomically). Calling it for an existing tenant rewrites the
// config.
func (t *Tenant) Create(meta []byte) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return fmt.Errorf("durable: create tenant %s: %w", t.name, err)
	}
	if err := writeFileAtomic(filepath.Join(t.dir, "meta.json"), meta); err != nil {
		return fmt.Errorf("durable: create tenant %s: %w", t.name, err)
	}
	return syncDir(t.dir)
}

// Meta returns the persisted tenant config.
func (t *Tenant) Meta() ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(t.dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("durable: read tenant %s config: %w", t.name, err)
	}
	return b, nil
}

// Drop closes the WAL and removes the tenant's durable state.
func (t *Tenant) Drop() error {
	if t.wal != nil {
		t.wal.close()
		t.wal = nil
	}
	if err := os.RemoveAll(t.dir); err != nil {
		return fmt.Errorf("durable: drop tenant %s: %w", t.name, err)
	}
	return nil
}

// Close releases the WAL file handle (final fsync included).
func (t *Tenant) Close() error {
	if t.wal == nil {
		return nil
	}
	err := t.wal.close()
	t.wal = nil
	return err
}

// writeFileAtomic writes data via a temp file + rename, fsyncing the file
// so the rename publishes complete content.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory so entry creates/renames/removes inside it
// are durable. Best effort: some platforms reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// seqName formats the fixed-width sequence number used in segment and
// checkpoint file names (lexicographic order == numeric order).
func seqName(prefix string, seq uint64, ext string) string {
	return fmt.Sprintf("%s%020d%s", prefix, seq, ext)
}

// parseSeqName extracts the sequence from a seqName-formatted file name.
func parseSeqName(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(ext)]
	if len(mid) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
