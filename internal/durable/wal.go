package durable

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"disttrack/internal/ckpt"
)

// WAL segment format. A segment starts with an 8-byte header
// [magic u32][version u16][reserved u16] and then holds records
//
//	[len u32][payload][crc32c(payload) u32]
//
// where the payload is seq u64, site u32, the perturbed keys as a counted
// u64 slice, then (version ≥ 2) the remote provenance: the sending node's
// name and the frame sequence it assigned. Records carry a dense sequence
// number: replay knows the log is whole when sequences are contiguous, and
// a checkpoint names the prefix it covers by a single sequence.
//
// New segments are written at walVersion; replay still accepts version-1
// segments (pre-provenance data directories), decoding them with empty
// provenance — their records predate durable cursors and fall back to the
// in-memory dedup window.
const (
	walMagic      = 0x57A1_10C7
	walVersion    = 2
	walVersionV1  = 1
	walHeaderLen  = 8
	walRecOverhed = 8       // len + crc framing around each payload
	maxWALRecord  = 1 << 26 // refuse absurd lengths before allocating
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

const (
	walPrefix = "wal-"
	walExt    = ".log"
)

// wal is the append side of one tenant's log. Appends (from ingest calls,
// under the tenant's gate) are serialized by mu; stats counters are atomics
// so the metrics scraper never takes the append lock.
type wal struct {
	mu       sync.Mutex
	store    *Store // totals every tenant's appends and fsyncs
	dir      string
	opts     Options
	f        *os.File
	size     int64
	segStart uint64 // first sequence in the open segment
	nextSeq  uint64
	lastSync time.Time
	enc      ckpt.Encoder

	appendedRecs atomic.Int64
	appendedVals atomic.Int64
	segments     atomic.Int64
}

// WALStats is a point-in-time view of one tenant's WAL counters.
type WALStats struct {
	Segments        int64
	AppendedRecords int64
	AppendedValues  int64
	NextSeq         uint64
}

// OpenWAL readies the tenant for appends. nextSeq must be one past the
// highest sequence already applied (from replay and/or the checkpoint
// cover); the first append gets it. Replay must run first — OpenWAL
// appends to the last segment as-is.
func (t *Tenant) OpenWAL(nextSeq uint64) error {
	if t.wal != nil {
		return fmt.Errorf("durable: tenant %s WAL already open", t.name)
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	w := &wal{store: t.store, dir: t.dir, opts: t.store.opts, nextSeq: nextSeq}
	segs, err := listSeqFiles(t.dir, walPrefix, walExt)
	if err != nil {
		return err
	}
	w.segments.Store(int64(len(segs)))
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(t.dir, seqName(walPrefix, last, walExt)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("durable: open WAL segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("durable: stat WAL segment: %w", err)
		}
		w.f, w.size, w.segStart = f, st.Size(), last
	}
	t.wal = w
	return nil
}

// Append logs one dispatch (the perturbed keys bound for one site) and
// returns its sequence number. It must return before the batch is handed
// to the tracker — write-ahead, so a crash after the append replays the
// batch and a crash before it never acknowledged the data.
//
// node and nodeSeq are the batch's remote provenance: the sending node's
// name and the frame sequence it assigned ("" and 0 for local HTTP
// ingest). Recovery folds the provenance of the replayed tail into the
// coordinator's durable cursor table, so a node replay that races a crash
// can never double-apply.
func (t *Tenant) Append(site int, keys []uint64, node string, nodeSeq uint64) (uint64, error) {
	w := t.wal
	if w == nil {
		return 0, fmt.Errorf("durable: tenant %s WAL not open", t.name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	seq := w.nextSeq
	w.enc.Reset()
	w.enc.U64(seq)
	w.enc.U32(uint32(site))
	w.enc.U64s(keys)
	w.enc.String(node)
	w.enc.U64(nodeSeq)
	payload := w.enc.Bytes()

	if w.f == nil || w.size >= w.opts.SegmentBytes {
		if err := w.roll(seq); err != nil {
			return 0, err
		}
	}
	var hdr [4]byte
	putU32(hdr[:], uint32(len(payload)))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	putU32(hdr[:], crc32.Checksum(payload, walCRC))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: WAL append: %w", err)
	}
	w.size += int64(len(payload)) + walRecOverhed
	w.nextSeq = seq + 1
	w.appendedRecs.Add(1)
	w.appendedVals.Add(int64(len(keys)))
	w.store.appended.Add(1)

	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.sync(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= fsyncEvery {
			if err := w.sync(); err != nil {
				return 0, err
			}
			w.lastSync = now
		}
	}
	return seq, nil
}

// NextSeq returns the sequence the next append will get.
func (t *Tenant) NextSeq() uint64 {
	if t.wal == nil {
		return 0
	}
	t.wal.mu.Lock()
	defer t.wal.mu.Unlock()
	return t.wal.nextSeq
}

// WALStats snapshots the tenant's WAL counters.
func (t *Tenant) WALStats() WALStats {
	w := t.wal
	if w == nil {
		return WALStats{}
	}
	w.mu.Lock()
	next := w.nextSeq
	w.mu.Unlock()
	return WALStats{
		Segments:        w.segments.Load(),
		AppendedRecords: w.appendedRecs.Load(),
		AppendedValues:  w.appendedVals.Load(),
		NextSeq:         next,
	}
}

// roll closes the open segment (synced, so a covered segment is complete
// on disk) and starts a new one named by its first sequence.
func (w *wal) roll(firstSeq uint64) error {
	if w.f != nil {
		if err := w.sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("durable: close WAL segment: %w", err)
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, seqName(walPrefix, firstSeq, walExt))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create WAL segment: %w", err)
	}
	var hdr [walHeaderLen]byte
	putU32(hdr[0:], walMagic)
	hdr[4] = byte(walVersion)
	hdr[5] = byte(walVersion >> 8)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: create WAL segment: %w", err)
	}
	w.f, w.size, w.segStart = f, walHeaderLen, firstSeq
	w.segments.Add(1)
	return syncDir(w.dir)
}

func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	w.store.fsyncs.Add(1)
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ReplayStats reports what a WAL replay found.
type ReplayStats struct {
	Records  int64  // records delivered to fn
	Values   int64  // keys delivered to fn
	LastSeq  uint64 // highest sequence seen (0 if none)
	TornTail bool   // final record was partial/corrupt and was truncated away
}

// ReplayWAL streams every intact record with sequence > after through fn,
// in order. A torn or corrupt tail in the final segment is expected after
// a crash: replay truncates the segment back to the last intact record
// and reports TornTail rather than failing. Corruption anywhere else — or
// a sequence gap — is a real integrity error and is returned, after fn
// has seen the intact prefix. Must run before OpenWAL.
//
// node and nodeSeq are the record's remote provenance (empty for local
// HTTP ingest and for records from version-1 segments, which predate
// provenance).
func (t *Tenant) ReplayWAL(after uint64, fn func(seq uint64, site int, keys []uint64, node string, nodeSeq uint64) error) (ReplayStats, error) {
	var stats ReplayStats
	if t.wal != nil {
		return stats, fmt.Errorf("durable: tenant %s: replay after WAL open", t.name)
	}
	segs, err := listSeqFiles(t.dir, walPrefix, walExt)
	if err != nil {
		return stats, err
	}
	var prevSeq uint64
	havePrev := false
	for i, start := range segs {
		lastSegment := i == len(segs)-1
		path := filepath.Join(t.dir, seqName(walPrefix, start, walExt))
		data, err := os.ReadFile(path)
		if err != nil {
			return stats, fmt.Errorf("durable: replay %s: %w", path, err)
		}
		if len(data) < walHeaderLen || getU32(data) != walMagic {
			if lastSegment && len(data) < walHeaderLen {
				// Crash between segment create and header write.
				stats.TornTail = true
				if err := truncateFile(path, 0); err != nil {
					return stats, err
				}
				if err := os.Remove(path); err != nil {
					return stats, fmt.Errorf("durable: drop torn segment: %w", err)
				}
				break
			}
			return stats, fmt.Errorf("durable: replay %s: bad segment header", path)
		}
		segVersion := uint16(data[4]) | uint16(data[5])<<8
		if segVersion != walVersion && segVersion != walVersionV1 {
			return stats, fmt.Errorf("durable: replay %s: segment version %d, want %d or %d",
				path, segVersion, walVersionV1, walVersion)
		}
		off := walHeaderLen
		for off < len(data) {
			seq, site, keys, node, nodeSeq, next, ok := decodeWALRecord(data, off, segVersion)
			if !ok {
				if lastSegment {
					stats.TornTail = true
					if err := truncateFile(path, int64(off)); err != nil {
						return stats, err
					}
					return stats, nil
				}
				return stats, fmt.Errorf("durable: replay %s: corrupt record at offset %d", path, off)
			}
			if havePrev && seq != prevSeq+1 {
				return stats, fmt.Errorf("durable: replay %s: sequence gap: %d after %d", path, seq, prevSeq)
			}
			prevSeq, havePrev = seq, true
			if seq > stats.LastSeq {
				stats.LastSeq = seq
			}
			if seq > after {
				if err := fn(seq, site, keys, node, nodeSeq); err != nil {
					return stats, err
				}
				stats.Records++
				stats.Values += int64(len(keys))
			}
			off = next
		}
	}
	return stats, nil
}

// decodeWALRecord parses one record at data[off:], shaped by the segment
// version (v1 records carry no provenance fields). ok is false for any
// truncation or corruption; it never panics on arbitrary bytes.
func decodeWALRecord(data []byte, off int, version uint16) (seq uint64, site int, keys []uint64, node string, nodeSeq uint64, next int, ok bool) {
	if len(data)-off < 4 {
		return 0, 0, nil, "", 0, 0, false
	}
	n := int(getU32(data[off:]))
	if n > maxWALRecord || len(data)-off-4 < n+4 {
		return 0, 0, nil, "", 0, 0, false
	}
	payload := data[off+4 : off+4+n]
	if crc32.Checksum(payload, walCRC) != getU32(data[off+4+n:]) {
		return 0, 0, nil, "", 0, 0, false
	}
	dec := ckpt.NewDecoder(payload)
	seq = dec.U64()
	site = int(dec.U32())
	keys = dec.U64s()
	if version >= walVersion {
		node = dec.String()
		nodeSeq = dec.U64()
	}
	if dec.Err() != nil || dec.Remaining() != 0 {
		return 0, 0, nil, "", 0, 0, false
	}
	return seq, site, keys, node, nodeSeq, off + 4 + n + 4, true
}

// truncateWAL removes segments fully covered by sequence cover. A segment
// is deletable only when a later segment exists and starts at or before
// cover+1 (so every record in it is ≤ cover); the newest segment always
// stays — it is the append target.
func (t *Tenant) truncateWAL(cover uint64) (removed int, err error) {
	segs, lerr := listSeqFiles(t.dir, walPrefix, walExt)
	if lerr != nil {
		return 0, lerr
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] > cover+1 {
			break
		}
		path := filepath.Join(t.dir, seqName(walPrefix, segs[i], walExt))
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("durable: truncate WAL: %w", err)
		}
		removed++
		if t.wal != nil {
			t.wal.segments.Add(-1)
		}
	}
	if removed > 0 {
		return removed, syncDir(t.dir)
	}
	return 0, nil
}

func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("durable: truncate torn WAL tail: %w", err)
	}
	f, err := os.Open(path)
	if err == nil {
		_ = f.Sync()
		f.Close()
	}
	return nil
}

// listSeqFiles returns the sequence numbers of prefix/ext files in dir,
// ascending.
func listSeqFiles(dir, prefix, ext string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: list %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range ents {
		if seq, ok := parseSeqName(e.Name(), prefix, ext); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
