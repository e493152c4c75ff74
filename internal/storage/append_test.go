package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// failWrites makes every log write land only its first half and then
// fail, calling after once the half has landed; it restores the real
// write when the test ends.
func failWrites(t *testing.T, after func(f *os.File)) {
	t.Helper()
	t.Cleanup(func() { writeLog = (*os.File).Write })
	writeLog = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		after(f)
		return n, errors.New("injected write failure")
	}
}

// TestFailedAppendLeavesNoTear: a Put whose write fails part-way must
// not leave its partial record in the log, or replay would stop there
// and drop every record appended after it.
func TestFailedAppendLeavesNoTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k1"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	failWrites(t, func(*os.File) {})
	if err := s.Put([]byte("k2"), []byte("two")); err == nil {
		t.Fatal("a failed write must fail Put")
	}
	writeLog = (*os.File).Write
	if _, ok := s.Get([]byte("k2")); ok {
		t.Fatal("a failed Put must not be visible")
	}
	if err := s.Put([]byte("k3"), []byte("three")); err != nil {
		t.Fatal(err)
	}
	size := s.Size()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Keys(); !slices.Equal(got, []string{"k1", "k3"}) {
		t.Fatalf("after reopen keys = %v, want [k1 k3]", got)
	}
	if s2.Size() != size {
		t.Fatalf("reopened size %d, want %d", s2.Size(), size)
	}
}

// TestFailedRollbackRefusesAppends: when the log cannot be cut back
// after a failed write, its tail is unknown, so every later Put fails.
func TestFailedRollbackRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k1"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Closing the file under the store makes the rollback's truncate fail.
	failWrites(t, func(f *os.File) { f.Close() })
	if err := s.Put([]byte("k2"), []byte("two")); err == nil {
		t.Fatal("a failed write must fail Put")
	}
	writeLog = (*os.File).Write
	for i := 0; i < 2; i++ {
		if err := s.Put([]byte("k3"), []byte("three")); err == nil {
			t.Fatal("a store whose rollback failed must refuse later Puts")
		}
	}
	if _, ok := s.Get([]byte("k3")); ok {
		t.Fatal("a refused Put must not be visible")
	}
}
