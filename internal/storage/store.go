// Package storage is a small embedded key-value store standing in for the
// Berkeley DB / Berkeley DB XML pair the paper's experiments used as byte
// containers for the VFilter automaton and the materialized XML fragments
// (§VI). It is an append-only log with an in-memory index, written by the
// mutation WAL (one unique key per mutation) and by vfilter.PersistTo:
//
//   - Put/Get over []byte keys and values; a Put of an existing key
//     appends a new version, and nothing is ever rewritten in place;
//   - crash-safe reads: every record carries a length header and a
//     checksum, and Open truncates a torn or corrupt tail instead of
//     failing;
//   - a failed append leaves no partial record behind, so the records
//     appended after it survive a reopen;
//   - Size reports stored bytes — the measurement behind Figure 11.
//
// The store is safe for concurrent use.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

// magic begins every log file.
var magic = [4]byte{'x', 'p', 'v', '1'}

const (
	opPut = byte(1)
	// opDelete marks a key removed. The store never writes it, but logs
	// written by earlier versions carry it, and replay applies it so
	// that they recover the same keys.
	opDelete = byte(2)
)

// headerSize is a record's fixed header: op(1) keyLen(4) valLen(4).
const headerSize = 9

// writeLog appends b to the log file. It is a variable so that a test
// can fail a write part-way through.
var writeLog = (*os.File).Write

// Store is an open key-value store.
type Store struct {
	mu   sync.RWMutex
	path string
	f    *os.File
	// mem holds every live value (the working sets here are small:
	// automata and mutation records).
	mem  map[string][]byte
	size int64
	// buf is the scratch one record is encoded into before its single
	// write.
	buf []byte
	// broken is set when a failed append could not be rolled back; the
	// log's tail is then unknown, and every later Put returns it.
	broken error
}

// Open opens or creates the store at path. A corrupt or torn tail is
// truncated; fully corrupt files yield an error.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	s := &Store{path: path, f: f, mem: make(map[string][]byte)}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenMemory creates a purely in-memory store (no file); Sync and Close
// are no-ops. Used by tests and benchmarks that only need Size
// accounting.
func OpenMemory() *Store {
	return &Store{mem: make(map[string][]byte)}
}

func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat: %w", err)
	}
	if info.Size() == 0 {
		if _, err := s.f.Write(magic[:]); err != nil {
			return fmt.Errorf("storage: write magic: %w", err)
		}
		s.size = int64(len(magic))
		return nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(s.f, hdr[:]); err != nil || hdr != magic {
		return fmt.Errorf("storage: %s is not a store file", s.path)
	}
	off := int64(len(magic))
	buf := make([]byte, 0, 4096)
	for {
		rec, n, err := readRecord(s.f, info.Size()-off, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			// torn or corrupt tail: truncate and continue from here
			if terr := s.f.Truncate(off); terr != nil {
				return fmt.Errorf("storage: truncate torn tail: %w", terr)
			}
			break
		}
		off += int64(n)
		switch rec.op {
		case opPut:
			s.mem[string(rec.key)] = append([]byte(nil), rec.val...)
		case opDelete:
			delete(s.mem, string(rec.key))
		}
	}
	s.size = off
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("storage: seek: %w", err)
	}
	return nil
}

type record struct {
	op  byte
	key []byte
	val []byte
}

// readRecord reads the next record; remain is the number of bytes left
// in the file. A record whose lengths reach past the end of the file is
// a torn tail, so no body larger than the file is ever allocated.
//
// record layout: op(1) keyLen(4) valLen(4) key val crc32(4 over all prior
// bytes of the record).
func readRecord(r io.Reader, remain int64, scratch *[]byte) (record, int, error) {
	var fixed [headerSize]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return record{}, 0, fmt.Errorf("storage: torn header")
		}
		return record{}, 0, err
	}
	op := fixed[0]
	kl := binary.LittleEndian.Uint32(fixed[1:5])
	vl := binary.LittleEndian.Uint32(fixed[5:9])
	need := int64(kl) + int64(vl) + 4
	if need > remain-headerSize {
		return record{}, 0, fmt.Errorf("storage: record runs past the end of the file")
	}
	if int64(cap(*scratch)) < need {
		*scratch = make([]byte, need)
	}
	body := (*scratch)[:need]
	if _, err := io.ReadFull(r, body); err != nil {
		return record{}, 0, fmt.Errorf("storage: torn body: %w", err)
	}
	sum := crc32.NewIEEE()
	sum.Write(fixed[:])
	sum.Write(body[:kl+vl])
	if binary.LittleEndian.Uint32(body[kl+vl:]) != sum.Sum32() {
		return record{}, 0, fmt.Errorf("storage: checksum mismatch")
	}
	return record{op: op, key: body[:kl], val: body[kl : kl+vl]}, headerSize + int(need), nil
}

// appendPut appends the encoding of one put record to buf.
func appendPut(buf []byte, key, val []byte) []byte {
	start := len(buf)
	buf = append(buf, opPut)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Put stores value under key, overwriting any previous version. The
// record goes to the log in one write; if that write fails, the log is
// cut back to where the record began, and if that fails too, the store
// refuses every later Put.
func (s *Store) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	n := int64(headerSize + len(key) + len(value) + 4)
	if s.f != nil {
		s.buf = appendPut(s.buf[:0], key, value)
		if _, err := writeLog(s.f, s.buf); err != nil {
			err = fmt.Errorf("storage: put: %w", err)
			if rerr := s.rollbackLocked(); rerr != nil {
				s.broken = fmt.Errorf("storage: log unusable after a failed append: %w", errors.Join(err, rerr))
			}
			return err
		}
	}
	s.size += n
	s.mem[string(key)] = append([]byte(nil), value...)
	return nil
}

// rollbackLocked cuts the log back to its last complete record after a
// failed append. Caller holds s.mu.
func (s *Store) rollbackLocked() error {
	if err := s.f.Truncate(s.size); err != nil {
		return err
	}
	_, err := s.f.Seek(s.size, io.SeekStart)
	return err
}

// Get returns the value stored under key; ok reports presence. The
// returned slice must not be modified.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.mem[string(key)]
	return v, ok
}

// Keys returns all live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.mem))
	for k := range s.mem {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}

// Size returns the store's on-disk (or accounted, for memory stores)
// byte size including headers — the Figure 11 measurement.
func (s *Store) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close releases the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
