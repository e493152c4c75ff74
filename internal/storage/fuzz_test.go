package storage_test

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"xpathviews/internal/storage"
)

// FuzzStoreReplay writes a short script of Puts, damages the log once at
// or after its magic — a cut at offset k or one flipped byte there — and
// reopens it. Open must neither panic nor fail, the recovered keys and
// values must be the state after exactly the Puts whose records lie
// wholly before the damage, and a Put made after the reopen must survive
// another.
//
// Input bytes, read in order (missing bytes read as 0): the number of
// Puts (1–8); per Put a key choice (one of four keys, so overwrites
// happen), a value length (0–32) and the value's bytes; the damage kind
// (even: cut, odd: flip); two bytes of offset; the flip mask. The seed
// corpus is in testdata/fuzz/FuzzStoreReplay.
func FuzzStoreReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		path := filepath.Join(t.TempDir(), "fuzz.db")
		s, err := storage.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// states[i] and ends[i] are the state and the log size after the
		// first i Puts.
		states := []map[string]string{{}}
		ends := []int64{s.Size()}
		for i, n := 0, 1+int(next()%8); i < n; i++ {
			key := fmt.Sprintf("key%d", next()%4)
			val := make([]byte, next()%33)
			for j := range val {
				val[j] = next()
			}
			if err := s.Put([]byte(key), val); err != nil {
				t.Fatal(err)
			}
			st := maps.Clone(states[len(states)-1])
			st[key] = string(val)
			states = append(states, st)
			ends = append(ends, s.Size())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flip := next()%2 == 1
		span := int64(len(log)) - 4 // a cut may fall at the very end
		if flip {
			span--
		}
		k := 4 + (int64(next())<<8|int64(next()))%(span+1)
		if flip {
			mask := next()
			if mask == 0 {
				mask = 0xff
			}
			log[k] ^= mask
		} else {
			log = log[:k]
		}
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		survive := 0
		for survive+1 < len(ends) && ends[survive+1] <= k {
			survive++
		}
		want := states[survive]

		s2, err := storage.Open(path)
		if err != nil {
			t.Fatalf("Open after damage at %d: %v", k, err)
		}
		check := func(s *storage.Store, want map[string]string) {
			t.Helper()
			if s.Len() != len(want) {
				t.Fatalf("damage at %d: recovered keys %v, want %d keys", k, s.Keys(), len(want))
			}
			for key, val := range want {
				if got, ok := s.Get([]byte(key)); !ok || !bytes.Equal(got, []byte(val)) {
					t.Fatalf("damage at %d: %s = %q %v, want %q", k, key, got, ok, val)
				}
			}
		}
		check(s2, want)
		if s2.Size() != ends[survive] {
			t.Fatalf("damage at %d: reopened size %d, want %d", k, s2.Size(), ends[survive])
		}
		if err := s2.Put([]byte("post"), []byte("open")); err != nil {
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
		want = maps.Clone(want)
		want["post"] = "open"
		check(s3, want)
	})
}
