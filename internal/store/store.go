// Package store implements xqd's durable result store: a crash-safe,
// append-only log of checksummed key/value records plus an atomic
// (tmp+rename) index snapshot that accelerates reopening.
//
// Durability model
//
//   - Every Put appends one length-prefixed, CRC32-checksummed record and
//     fsyncs before acknowledging, so an acknowledged write survives
//     kill -9 and power loss (modulo the device honoring fsync).
//   - A crash mid-append leaves at most one torn record at the tail.
//     Open detects it (short header, short payload, length out of range,
//     or checksum mismatch), truncates the log back to the last good
//     record, and replays cleanly — the store always reopens to exactly
//     the acknowledged prefix.
//   - The index snapshot is written with the temp-file + rename idiom, so
//     it is either the previous complete snapshot or the new complete
//     snapshot, never a torn hybrid. It is trusted only when it matches
//     the log byte count exactly AND the log's final record still
//     verifies; any disagreement falls back to a full checksum scan.
//
// The log format is:
//
//	header:  8 bytes  "XQDSTOR1"
//	record:  4 bytes  little-endian payload length
//	         4 bytes  CRC32 (IEEE) of the payload
//	         payload: 1 byte op (0 put, 1 delete)
//	                  4 bytes little-endian key length
//	                  key bytes, then value bytes
//
// Within a key the last record wins, so Put doubles as overwrite and a
// delete is a tombstone record.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	logMagic = "XQDSTOR1"
	// maxRecord bounds one record's payload; anything larger at scan time
	// is treated as tail corruption rather than an attempt to allocate it.
	maxRecord = 64 << 20
	// payloadHeader is the op byte plus the key-length word.
	payloadHeader = 5
	// snapshotEvery is how many appends may accumulate before the index
	// snapshot is refreshed (Close always refreshes it).
	snapshotEvery = 64
	// snapshotVersion guards the index snapshot format.
	snapshotVersion = 1
)

// ref locates one live value inside the log.
type ref struct {
	// Off is the byte offset of the value within the log file.
	Off int64 `json:"off"`
	// Len is the value length in bytes.
	Len int `json:"len"`
}

// snapshot is the on-disk index: the full key->value map of a log prefix,
// valid only for exactly LogBytes bytes of log.
type snapshot struct {
	Version int `json:"version"`
	// LogBytes is the log size the snapshot describes.
	LogBytes int64 `json:"log_bytes"`
	// LastRecord is the offset of the final record in that prefix (0 when
	// the log is empty); Open re-verifies its checksum before trusting
	// the snapshot.
	LastRecord int64          `json:"last_record"`
	Index      map[string]ref `json:"index"`
}

// Store is a durable key/value result store backed by one append-only
// log file. It is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64 // committed log bytes (acknowledged records only)
	index  map[string]ref
	dirty  int // appends since the last snapshot
	closed bool

	recoveredBytes int64 // torn/corrupt tail bytes truncated at Open
	fullScan       bool  // Open could not use the snapshot fast path
}

// Open opens (creating if needed) the store logged at path. It recovers
// from any crash mid-write: a torn or corrupt tail record is truncated
// away and the store reopens to the last acknowledged record.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &Store{f: f, path: path, index: map[string]ref{}}
	if err := s.recoverLog(); err != nil {
		_ = f.Close() // the recovery error is the one to report
		return nil, err
	}
	return s, nil
}

// recoverLog establishes the committed log prefix: header check, index
// snapshot fast path, and otherwise a full checksum scan with tail
// truncation.
func (s *Store) recoverLog() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat log: %w", err)
	}
	size := st.Size()

	// A zero-length (or torn-header) file is an empty store: stamp a
	// fresh header. A full header that is not ours is a foreign file —
	// refuse to clobber it.
	if size < int64(len(logMagic)) {
		if size > 0 {
			s.recoveredBytes = size
		}
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: reset torn header: %w", err)
		}
		if _, err := s.f.WriteAt([]byte(logMagic), 0); err != nil {
			return fmt.Errorf("store: write header: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync header: %w", err)
		}
		s.size = int64(len(logMagic))
		s.fullScan = true
		return nil
	}
	hdr := make([]byte, len(logMagic))
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("store: read header: %w", err)
	}
	if string(hdr) != logMagic {
		return fmt.Errorf("store: %s is not a store log (bad magic %q)", s.path, hdr)
	}

	// Snapshot fast path: exact size match plus a verified final record.
	if snap := s.loadSnapshot(); snap != nil && snap.LogBytes == size &&
		s.verifyRecordAt(snap.LastRecord, size) {
		s.index = snap.Index
		s.size = size
		return nil
	}
	s.fullScan = true
	return s.scan(size)
}

// loadSnapshot reads the index snapshot if present and well-formed;
// any defect just disables the fast path.
func (s *Store) loadSnapshot() *snapshot {
	data, err := os.ReadFile(s.snapshotPath())
	if err != nil {
		return nil
	}
	var snap snapshot
	if json.Unmarshal(data, &snap) != nil || snap.Version != snapshotVersion || snap.Index == nil {
		return nil
	}
	if snap.LogBytes < int64(len(logMagic)) {
		return nil
	}
	return &snap
}

// verifyRecordAt re-reads the record at off and reports whether it is
// intact and ends exactly at end. off == 0 means "empty log" and is
// valid only when end is exactly the header.
func (s *Store) verifyRecordAt(off, end int64) bool {
	if off == 0 {
		return end == int64(len(logMagic))
	}
	if off < int64(len(logMagic)) || off+8 > end {
		return false
	}
	var hdr [8]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < payloadHeader || n > maxRecord || off+8+n != end {
		return false
	}
	payload := make([]byte, n)
	if _, err := s.f.ReadAt(payload, off+8); err != nil {
		return false
	}
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[4:8])
}

// scan replays the log from the header, rebuilding the index. The first
// defective record — torn length word, impossible length, short payload,
// checksum mismatch, or malformed key framing — marks the end of the
// acknowledged prefix: everything from there on is truncated away.
func (s *Store) scan(size int64) error {
	s.index = map[string]ref{}
	off := int64(len(logMagic))
	for off < size {
		rec, key, val, ok := s.readRecord(off, size)
		if !ok {
			s.recoveredBytes += size - off
			if err := s.f.Truncate(off); err != nil {
				return fmt.Errorf("store: truncate torn tail at %d: %w", off, err)
			}
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("store: sync truncated log: %w", err)
			}
			size = off
			break
		}
		if rec.tombstone {
			delete(s.index, key)
		} else {
			s.index[key] = val
		}
		off = rec.next
	}
	s.size = size
	return nil
}

// recordInfo carries one scanned record's framing.
type recordInfo struct {
	next      int64
	tombstone bool
}

// readRecord parses the record at off; ok is false on any defect.
func (s *Store) readRecord(off, size int64) (recordInfo, string, ref, bool) {
	if off+8 > size {
		return recordInfo{}, "", ref{}, false
	}
	var hdr [8]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil {
		return recordInfo{}, "", ref{}, false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < payloadHeader || n > maxRecord || off+8+n > size {
		return recordInfo{}, "", ref{}, false
	}
	payload := make([]byte, n)
	if _, err := s.f.ReadAt(payload, off+8); err != nil {
		return recordInfo{}, "", ref{}, false
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return recordInfo{}, "", ref{}, false
	}
	keyLen := int64(binary.LittleEndian.Uint32(payload[1:5]))
	if keyLen < 0 || payloadHeader+keyLen > n {
		return recordInfo{}, "", ref{}, false
	}
	key := string(payload[payloadHeader : payloadHeader+keyLen])
	r := ref{Off: off + 8 + payloadHeader + keyLen, Len: int(n - payloadHeader - keyLen)}
	return recordInfo{next: off + 8 + n, tombstone: payload[0] == 1}, key, r, true
}

// Put durably records value under key (fsync before returning). Within a
// key the last Put wins.
func (s *Store) Put(key string, value []byte) error {
	return s.append(key, value, false)
}

// Delete durably records a tombstone for key.
func (s *Store) Delete(key string) error {
	return s.append(key, nil, true)
}

func (s *Store) append(key string, value []byte, tombstone bool) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	n := payloadHeader + len(key) + len(value)
	if n > maxRecord {
		return fmt.Errorf("store: record for %q is %d bytes (max %d)", key, n, maxRecord)
	}
	buf := make([]byte, 8+n)
	payload := buf[8:]
	if tombstone {
		payload[0] = 1
	}
	binary.LittleEndian.PutUint32(payload[1:5], uint32(len(key)))
	copy(payload[payloadHeader:], key)
	copy(payload[payloadHeader+len(key):], value)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put %q: store is closed", key)
	}
	// Write at the committed size: if a previous append failed partway,
	// its torn bytes sit past s.size and are simply overwritten here.
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("store: append %q: %w", key, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %q: %w", key, err)
	}
	recOff := s.size
	s.size += int64(len(buf))
	if tombstone {
		delete(s.index, key)
	} else {
		s.index[key] = ref{Off: recOff + 8 + payloadHeader + int64(len(key)), Len: len(value)}
	}
	s.dirty++
	if s.dirty >= snapshotEvery {
		// Best effort: a failed snapshot only slows the next Open.
		_ = s.saveSnapshotLocked(recOff)
	}
	return nil
}

// Get returns the value last Put under key. ok is false for missing (or
// deleted) keys; err reports I/O failures reading the log.
func (s *Store) Get(key string) (value []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: get %q: store is closed", key)
	}
	r, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	value = make([]byte, r.Len)
	if _, err := s.f.ReadAt(value, r.Off); err != nil {
		return nil, false, fmt.Errorf("store: read %q: %w", key, err)
	}
	return value, true, nil
}

// Has reports whether key currently has a value.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Keys returns the live keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// RecoveredBytes reports how many torn/corrupt tail bytes Open truncated
// away (0 for a clean open).
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveredBytes
}

// FullScan reports whether Open had to replay the whole log instead of
// using the index snapshot.
func (s *Store) FullScan() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fullScan
}

// Close refreshes the index snapshot and closes the log. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	snapErr := s.saveSnapshotLocked(s.lastRecordOffLocked())
	closeErr := s.f.Close()
	if snapErr != nil {
		return snapErr
	}
	if closeErr != nil {
		return fmt.Errorf("store: close log: %w", closeErr)
	}
	return nil
}

// lastRecordOffLocked finds the offset of the final committed record by
// walking the framing (cheap: headers only, no payload reads).
func (s *Store) lastRecordOffLocked() int64 {
	off, last := int64(len(logMagic)), int64(0)
	for off < s.size {
		var hdr [8]byte
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			return 0
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n < payloadHeader || off+8+n > s.size {
			return 0
		}
		last = off
		off += 8 + n
	}
	return last
}

func (s *Store) snapshotPath() string { return s.path + ".idx" }

// saveSnapshotLocked writes the index snapshot atomically
// (WriteFileAtomic).
func (s *Store) saveSnapshotLocked(lastRecord int64) error {
	snap := snapshot{
		Version:    snapshotVersion,
		LogBytes:   s.size,
		LastRecord: lastRecord,
		Index:      s.index,
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	if err := WriteFileAtomic(s.snapshotPath(), data); err != nil {
		return fmt.Errorf("store: save snapshot: %w", err)
	}
	s.dirty = 0
	return nil
}

// WriteFileAtomic replaces path with data so that a reader, or a crash
// at any point, sees either the old file or the new one whole: the bytes
// go to a temp file in path's directory, which is fsynced and then
// renamed over path. On error the temp file is removed and path is left
// as it was.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort; the first error is the one to report
	}
	return err
}
