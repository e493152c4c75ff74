package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"xpathviews/internal/storage"
)

func openTemp(t *testing.T) (*storage.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.db")
	s, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// appendDelete appends a delete record for key to the log at path:
// op 2, keyLen, valLen 0, key, crc32. The store never writes these,
// but older logs carry them and replay must still apply them.
func appendDelete(t *testing.T, path string, key string) {
	t.Helper()
	rec := []byte{2}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, 0)
	rec = append(rec, key...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	s, path := openTemp(t)

	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("empty store returned a value")
	}
	if err := s.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendDelete(t, path, "k")
	appendDelete(t, path, "missing")
	s2, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("k")); ok {
		t.Fatal("deleted key still present")
	}
	if s2.Len() != 0 {
		t.Fatalf("a delete record for a missing key must be a no-op: %v", s2.Keys())
	}
}

func TestReopenRecovers(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%02d", i)), bytes.Repeat([]byte{byte(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendDelete(t, path, "key07")

	s2, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 49 {
		t.Fatalf("recovered %d keys, want 49", s2.Len())
	}
	v, ok := s2.Get([]byte("key10"))
	if !ok || len(v) != 10 || v[0] != 10 {
		t.Fatalf("recovered value wrong: %v %v", v, ok)
	}
	if _, ok := s2.Get([]byte("key07")); ok {
		t.Fatal("deleted key resurrected")
	}
}

func TestTornTailTruncated(t *testing.T) {
	s, path := openTemp(t)
	s.Put([]byte("alpha"), []byte("1"))
	s.Put([]byte("beta"), []byte("2"))
	s.Close()

	// Simulate a crash mid-append: chop bytes off the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := storage.Open(path)
	if err != nil {
		t.Fatalf("torn tail must not fail Open: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("alpha")); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := s2.Get([]byte("beta")); ok {
		t.Fatal("torn record must be dropped")
	}
	// The store must be writable again after truncation.
	if err := s2.Put([]byte("gamma"), []byte("3")); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	s, path := openTemp(t)
	s.Put([]byte("alpha"), []byte("11111111"))
	s.Put([]byte("beta"), []byte("22222222"))
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's value.
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("alpha")); !ok {
		t.Fatal("record before corruption lost")
	}
	if _, ok := s2.Get([]byte("beta")); ok {
		t.Fatal("corrupt record must not replay")
	}
}

func TestNotAStoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.db")
	if err := os.WriteFile(path, []byte("whatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(path); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
}

func TestKeysSorted(t *testing.T) {
	s := storage.OpenMemory()
	s.Put([]byte("b"), []byte("2"))
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("c"), []byte("3"))
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
	if s.Size() <= 0 {
		t.Fatal("memory store must account size")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestOverwritesAppend: the log is append-only, so every overwrite adds
// a record, and replay keeps the last version.
func TestOverwritesAppend(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte("k"), bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	size := s.Size()
	if size < 50*128 {
		t.Fatalf("log dropped versions: size %d", size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get([]byte("k")); !ok || len(v) != 128 || v[0] != 49 || s2.Len() != 1 {
		t.Fatalf("replay kept %d keys, last value %v %v", s2.Len(), v, ok)
	}
	if s2.Size() != size {
		t.Fatalf("reopened size %d, want %d", s2.Size(), size)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := storage.OpenMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []byte(fmt.Sprintf("g%d-%d", g, i%10))
				s.Put(key, []byte{byte(i)})
				s.Get(key)
				if i%3 == 0 {
					s.Keys()
					s.Size()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPartialAppendRecovered simulates a crash that left a partially
// written record at the tail — both a torn header and a full header with
// a torn body — and checks that reopening replays every complete record,
// drops the partial one, and leaves the store writable and durable
// across a further clean reopen.
func TestPartialAppendRecovered(t *testing.T) {
	cases := []struct {
		name string
		tail func() []byte
	}{
		{"partial header", func() []byte {
			// Only the op byte and half the key-length field landed.
			return []byte{0, 0x05, 0x00}
		}},
		{"partial body", func() []byte {
			// Complete header promising key "delta" value "4444", but the
			// crash cut the write after three key bytes.
			tail := []byte{0}
			tail = append(tail, 5, 0, 0, 0) // keyLen = 5
			tail = append(tail, 4, 0, 0, 0) // valLen = 4
			tail = append(tail, 'd', 'e', 'l')
			return tail
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, path := openTemp(t)
			s.Put([]byte("alpha"), []byte("1"))
			s.Put([]byte("beta"), []byte("2"))
			s.Put([]byte("gamma"), []byte("3"))
			s.Close()

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail()); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := storage.Open(path)
			if err != nil {
				t.Fatalf("partial append must not fail Open: %v", err)
			}
			for _, k := range []string{"alpha", "beta", "gamma"} {
				if _, ok := s2.Get([]byte(k)); !ok {
					t.Fatalf("complete record %q lost", k)
				}
			}
			if _, ok := s2.Get([]byte("delta")); ok {
				t.Fatal("partial record must not replay")
			}
			if s2.Len() != 3 {
				t.Fatalf("recovered %d keys, want 3", s2.Len())
			}
			// Writable after recovery, and the new write must survive a
			// clean reopen (i.e. recovery really truncated the junk tail).
			if err := s2.Put([]byte("delta"), []byte("4")); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := storage.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.Len() != 4 {
				t.Fatalf("after recovery+write reopen has %d keys, want 4", s3.Len())
			}
			if v, ok := s3.Get([]byte("delta")); !ok || string(v) != "4" {
				t.Fatalf("post-recovery write lost: %q %v", v, ok)
			}
		})
	}
}

// TestOpenBoundsRecordByFile: a header whose lengths reach past the end
// of the file is a torn tail. Open must truncate it without allocating
// the body the header claims.
func TestOpenBoundsRecordByFile(t *testing.T) {
	s, path := openTemp(t)
	s.Put([]byte("alpha"), []byte("1"))
	s.Close()

	hdr := []byte{1}
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<26)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := storage.Open(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("torn header must not fail Open: %v", err)
	}
	defer s2.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Open allocated %d bytes for a header claiming a 64 MiB value", got)
	}
	if _, ok := s2.Get([]byte("alpha")); !ok || s2.Len() != 1 {
		t.Fatalf("intact record lost: keys %v", s2.Keys())
	}
	if info, err := os.Stat(path); err != nil || info.Size() != s2.Size() {
		t.Fatalf("torn header not truncated: file %v, store %d", info, s2.Size())
	}
}
