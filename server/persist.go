package server

// Snapshot persistence for the daemon's cache: the keyspace is written to
// disk when a drain completes and restored at startup, so a planned
// restart (deploy, host reboot) comes back with a warm cache instead of a
// miss storm. The format mirrors the root package's Map snapshots
// (persist.go): fixed header, length-prefixed records, and a CRC64
// trailer so a truncated or bit-flipped file is rejected as
// ErrBadSnapshot rather than half-loaded.
//
// Layout (all integers little-endian):
//
//	u64 magic "cuckood1"   u64 version
//	repeated records: u32 keyLen, key, u32 valLen, val, i64 expireAt,
//	                  u64 ver          (ver present from version 2 on)
//	u32 end marker 0xFFFFFFFF
//	u64 record count
//	u64 CRC64-ECMA of everything above
//
// Version 2 (cuckoorepl) appends each entry's replication version word
// to the record and loads records last-writer-wins, which is what lets
// the HANDOFF verb double as replication bulk catch-up: replaying a
// snapshot over fresher data can never regress a key. Version 1
// streams are still read (records load with ver 0, which loses to any
// replicated write).
//
// Keys are bounded by the protocol (250 bytes) and values by the line
// limit, so a length word past maxSnapshotStr means corruption, not a
// big record. Entries already expired at save or load time are skipped:
// a snapshot carries no obligation to resurrect dead data.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"time"
)

const (
	cacheSnapMagic   = 0x6375636B6F6F6431 // "cuckood1"
	cacheSnapVersion = 2
	// cacheSnapVersionNoVer is the pre-replication format: identical but
	// for the per-record version word. Still accepted on load.
	cacheSnapVersionNoVer = 1
	cacheSnapEnd          = ^uint32(0)
	// maxSnapshotStr bounds one record string; generous over the protocol's
	// own limits so format evolution has headroom.
	maxSnapshotStr = 1 << 20
)

// ErrBadSnapshot is returned by LoadSnapshot when the stream is not a
// valid cache snapshot (bad magic/version, truncation, CRC mismatch).
var ErrBadSnapshot = errors.New("server: bad snapshot")

// snapEncoder streams records in the snapshot wire format: header on
// construction, one record per add, end marker + count + CRC trailer on
// finish. It backs both the drain-time full snapshot and the MIGRATE
// verb's bulk transfer (cluster.go), which ships a selected subset of
// keys to another node in exactly this format.
type snapEncoder struct {
	dst     io.Writer
	crc     hash.Hash64
	bw      *bufio.Writer
	count   uint64
	scratch [8]byte
}

func newSnapEncoder(w io.Writer) *snapEncoder {
	e := &snapEncoder{dst: w, crc: crc64.New(crc64.MakeTable(crc64.ECMA))}
	e.bw = bufio.NewWriterSize(io.MultiWriter(w, e.crc), 1<<16)
	e.putU64(cacheSnapMagic)
	e.putU64(cacheSnapVersion)
	return e
}

func (e *snapEncoder) putU32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	e.bw.Write(e.scratch[:4])
}

func (e *snapEncoder) putU64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:], v)
	e.bw.Write(e.scratch[:])
}

// add appends one record.
func (e *snapEncoder) add(it item) {
	key, val := it.key(), it.val()
	e.putU32(uint32(len(key)))
	e.bw.WriteString(key)
	e.putU32(uint32(len(val)))
	e.bw.WriteString(val)
	e.putU64(uint64(it.expireAt()))
	e.putU64(it.ver())
	e.count++
}

// finish writes the end marker, record count, and CRC trailer.
func (e *snapEncoder) finish() error {
	e.putU32(cacheSnapEnd)
	e.putU64(e.count)
	if err := e.bw.Flush(); err != nil {
		return err
	}
	// The trailer checksums everything before it, so it bypasses crc.
	binary.LittleEndian.PutUint64(e.scratch[:], e.crc.Sum64())
	_, err := e.dst.Write(e.scratch[:])
	return err
}

// SaveSnapshot writes the cache's live entries to w. Concurrent writers
// are not excluded — the caller serializes (the daemon snapshots after
// the drain, when no handler is running).
func (c *Cache) SaveSnapshot(w io.Writer) error {
	enc := newSnapEncoder(w)
	now := time.Now().UnixNano()
	for _, sh := range c.shards {
		for _, it := range sh.table.All() {
			if it.expired(now) {
				continue
			}
			enc.add(it)
		}
	}
	return enc.finish()
}

// LoadSnapshot replaces nothing and merges everything: each record is
// stored through the normal Set path (eviction rules included), skipping
// entries whose TTL has already passed. The whole stream is validated —
// header, end marker, count, CRC — before the first record is applied,
// so a corrupt snapshot leaves the cache untouched.
func (c *Cache) LoadSnapshot(r io.Reader) (int, error) {
	crc := crc64.New(crc64.MakeTable(crc64.ECMA))
	br := bufio.NewReaderSize(r, 1<<16)

	type record struct {
		key, val []byte
		expireAt int64
		ver      uint64
	}
	var recs []record

	magic, err := readSnapU64(br, crc)
	if err != nil || magic != cacheSnapMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	version, err := readSnapU64(br, crc)
	if err != nil || (version != cacheSnapVersion && version != cacheSnapVersionNoVer) {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, version)
	}
	for {
		klen, err := readSnapU32(br, crc)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated record", ErrBadSnapshot)
		}
		if klen == cacheSnapEnd {
			break
		}
		key, err := readSnapStr(br, crc, klen)
		if err != nil {
			return 0, err
		}
		vlen, err := readSnapU32(br, crc)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated record", ErrBadSnapshot)
		}
		val, err := readSnapStr(br, crc, vlen)
		if err != nil {
			return 0, err
		}
		exp, err := readSnapU64(br, crc)
		if err != nil {
			return 0, fmt.Errorf("%w: truncated record", ErrBadSnapshot)
		}
		var ver uint64
		if version >= cacheSnapVersion {
			if ver, err = readSnapU64(br, crc); err != nil {
				return 0, fmt.Errorf("%w: truncated record", ErrBadSnapshot)
			}
		}
		recs = append(recs, record{key: key, val: val, expireAt: int64(exp), ver: ver})
	}
	count, err := readSnapU64(br, crc)
	if err != nil || count != uint64(len(recs)) {
		return 0, fmt.Errorf("%w: record count mismatch", ErrBadSnapshot)
	}
	want := crc.Sum64()
	var trailer [8]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return 0, fmt.Errorf("%w: missing checksum", ErrBadSnapshot)
	}
	if binary.LittleEndian.Uint64(trailer[:]) != want {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}

	now := time.Now().UnixNano()
	loaded := 0
	for _, rec := range recs {
		if rec.expireAt != 0 && now >= rec.expireAt {
			continue
		}
		// Version-preserving, last-writer-wins apply: a record older than
		// the copy already stored (a catch-up replaying history the mirror
		// stream has since overtaken) is dropped, and applied records keep
		// their origin version so replicas stay comparable.
		applied, err := c.applyReplicaSet(rec.key, rec.val, rec.expireAt, rec.ver, nil)
		if err != nil {
			// A shard smaller than the snapshot's origin can fill up; the
			// remaining records are dropped silently — a cache restore is
			// best-effort by definition.
			continue
		}
		if applied {
			loaded++
		}
	}
	return loaded, nil
}

func readSnapU32(r io.Reader, crc hash.Hash64) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	crc.Write(b[:])
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readSnapU64(r io.Reader, crc hash.Hash64) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	crc.Write(b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readSnapStr(r io.Reader, crc hash.Hash64, n uint32) ([]byte, error) {
	if n > maxSnapshotStr {
		return nil, fmt.Errorf("%w: implausible string length %d", ErrBadSnapshot, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: truncated string", ErrBadSnapshot)
	}
	crc.Write(buf)
	return buf, nil
}

// saveSnapshot atomically persists the cache to cfg.SnapshotPath: write to
// a temp file in the same directory, fsync, rename. A crash mid-save
// leaves the previous snapshot intact.
func (s *Server) saveSnapshot() error {
	start := time.Now()
	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".cuckood-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.cache.SaveSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return err
	}
	dur := time.Since(start)
	s.cache.stats.snapSaves.Add(1)
	s.cache.stats.snapSaveNs.Store(uint64(dur))
	s.log.Info("snapshot saved",
		"path", s.cfg.SnapshotPath,
		"entries", s.cache.Len(),
		"dur", dur)
	return nil
}

// restoreSnapshot loads cfg.SnapshotPath into the cache at startup. A
// missing file is a clean first boot; a corrupt file is logged and
// ignored (an empty cache is always a safe fallback), so a bad snapshot
// can never keep the daemon down.
func (s *Server) restoreSnapshot() error {
	start := time.Now()
	f, err := os.Open(s.cfg.SnapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		s.log.Info("no snapshot to restore", "path", s.cfg.SnapshotPath)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := s.cache.LoadSnapshot(f)
	if err != nil {
		if errors.Is(err, ErrBadSnapshot) {
			s.log.Warn("snapshot rejected; starting cold",
				"path", s.cfg.SnapshotPath, "err", err)
			return nil
		}
		return err
	}
	dur := time.Since(start)
	s.cache.stats.snapLoads.Add(1)
	s.cache.stats.snapLoadNs.Store(uint64(dur))
	s.log.Info("snapshot restored",
		"path", s.cfg.SnapshotPath,
		"entries", n,
		"dur", dur)
	return nil
}
