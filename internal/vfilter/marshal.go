package vfilter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"xpathviews/internal/storage"
)

// This file serializes the automaton so it can live in the key-value
// store, mirroring the paper's use of Berkeley DB to hold VFILTER, and so
// its stored size can be measured (Figure 11).

const marshalVersion = 2

// MarshalBinary encodes the full automaton: states, arcs, accept entries
// and per-view path counts.
func (f *Filter) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	w := func(v any) {
		switch x := v.(type) {
		case uint32:
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], x)
			b.Write(tmp[:])
		case string:
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], uint32(len(x)))
			b.Write(tmp[:])
			b.WriteString(x)
		default:
			panic("vfilter: marshal: unsupported type")
		}
	}
	w(uint32(marshalVersion))
	w(uint32(len(f.states)))
	w(uint32(f.start))
	var byName []int // positions in st.labels, in label-string order
	for _, st := range f.states {
		byName = byName[:0]
		for i := range st.labels {
			byName = append(byName, i)
		}
		slices.SortFunc(byName, func(a, b int) int {
			return strings.Compare(f.labelOf[st.labels[a]], f.labelOf[st.labels[b]])
		})
		w(uint32(len(byName)))
		for _, i := range byName {
			w(f.labelOf[st.labels[i]])
			w(uint32(len(st.arcs[i])))
			for _, a := range st.arcs[i] {
				w(uint32(a))
			}
		}
		w(uint32(len(st.anyNode)))
		for _, a := range st.anyNode {
			w(uint32(a))
		}
		w(uint32(len(st.anySym)))
		for _, a := range st.anySym {
			w(uint32(a))
		}
		w(uint32(len(st.accepts)))
		for _, e := range st.accepts {
			w(uint32(e.View))
			w(uint32(e.PathIdx))
			w(uint32(e.PathLen))
			w(uint32(len(e.Attrs)))
			for _, a := range e.Attrs {
				w(a)
			}
		}
	}
	w(uint32(len(f.ordOf)))
	for _, v := range f.views {
		if v.paths >= 0 {
			w(uint32(v.id))
			w(uint32(v.paths))
		}
	}
	var gb uint32
	if f.gapBinding {
		gb = 1
	}
	if f.attrPruning {
		gb |= 2
	}
	w(gb)
	w(uint32(f.transitions))
	return b.Bytes(), nil
}

// UnmarshalBinary decodes an automaton produced by MarshalBinary.
func UnmarshalBinary(data []byte) (*Filter, error) {
	r := bytes.NewReader(data)
	rd32 := func() (uint32, error) {
		var tmp [4]byte
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(tmp[:]), nil
	}
	rdStr := func() (string, error) {
		n, err := rd32()
		if err != nil {
			return "", err
		}
		if int(n) > r.Len() {
			return "", fmt.Errorf("vfilter: unmarshal: string length %d exceeds input", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	fail := func(err error) (*Filter, error) {
		return nil, fmt.Errorf("vfilter: unmarshal: %w", err)
	}
	ver, err := rd32()
	if err != nil {
		return fail(err)
	}
	if ver != marshalVersion {
		return nil, fmt.Errorf("vfilter: unmarshal: unsupported version %d", ver)
	}
	nStates, err := rd32()
	if err != nil {
		return fail(err)
	}
	start, err := rd32()
	if err != nil {
		return fail(err)
	}
	f := &Filter{labelID: make(map[string]int32), ordOf: make(map[int]int32), start: int32(start)}
	f.states = make([]*state, nStates)
	accepts := 0 // accept entries read: one per live (view, path)
	for i := range f.states {
		st := &state{}
		f.states[i] = st
		nl, err := rd32()
		if err != nil {
			return fail(err)
		}
		for j := uint32(0); j < nl; j++ {
			l, err := rdStr()
			if err != nil {
				return fail(err)
			}
			na, err := rd32()
			if err != nil {
				return fail(err)
			}
			arcs := make([]int32, na)
			for k := range arcs {
				a, err := rd32()
				if err != nil {
					return fail(err)
				}
				arcs[k] = int32(a)
			}
			st.arcs[st.arcSlot(f.intern(l))] = arcs
		}
		for _, dst := range []*[]int32{&st.anyNode, &st.anySym} {
			n, err := rd32()
			if err != nil {
				return fail(err)
			}
			*dst = make([]int32, n)
			for k := range *dst {
				a, err := rd32()
				if err != nil {
					return fail(err)
				}
				(*dst)[k] = int32(a)
			}
		}
		na, err := rd32()
		if err != nil {
			return fail(err)
		}
		st.accepts = make([]Entry, na)
		accepts += int(na)
		for k := range st.accepts {
			v, err := rd32()
			if err != nil {
				return fail(err)
			}
			pi, err := rd32()
			if err != nil {
				return fail(err)
			}
			pl, err := rd32()
			if err != nil {
				return fail(err)
			}
			na2, err := rd32()
			if err != nil {
				return fail(err)
			}
			var eattrs []string
			for x := uint32(0); x < na2; x++ {
				a, err := rdStr()
				if err != nil {
					return fail(err)
				}
				eattrs = append(eattrs, a)
			}
			st.accepts[k] = Entry{View: int(v), PathIdx: int(pi), PathLen: int(pl), Attrs: eattrs}
		}
	}
	nv, err := rd32()
	if err != nil {
		return fail(err)
	}
	for i := uint32(0); i < nv; i++ {
		id, err := rd32()
		if err != nil {
			return fail(err)
		}
		np, err := rd32()
		if err != nil {
			return fail(err)
		}
		if _, dup := f.ordOf[int(id)]; dup {
			return nil, fmt.Errorf("vfilter: unmarshal: duplicate view id %d", id)
		}
		if int64(np) > int64(accepts)-int64(f.numEntries) {
			return nil, fmt.Errorf("vfilter: unmarshal: view %d claims %d paths, more than the accept entries left", id, np)
		}
		f.newView(int(id), int(np))
	}
	// Ordinals and dense path indices are not stored: derive them, in
	// stored view order, now that the view table is known.
	for _, st := range f.states {
		for k := range st.accepts {
			e := &st.accepts[k]
			ord, ok := f.ordOf[e.View]
			if !ok || e.PathIdx >= int(f.views[ord].paths) || e.PathLen == 0 {
				return nil, fmt.Errorf("vfilter: unmarshal: bad accept entry (view %d, path %d, len %d)", e.View, e.PathIdx, e.PathLen)
			}
			e.ord, e.idx = ord, f.views[ord].base+int32(e.PathIdx)
		}
	}
	gb, err := rd32()
	if err != nil {
		return fail(err)
	}
	f.gapBinding = gb&1 != 0
	f.attrPruning = gb&2 != 0
	tr, err := rd32()
	if err != nil {
		return fail(err)
	}
	f.transitions = int(tr)
	return f, nil
}

// filterKey is the store key VFILTER lives under.
var filterKey = []byte("vfilter/automaton")

// PersistTo writes the automaton into the store.
func (f *Filter) PersistTo(s *storage.Store) error {
	data, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	return s.Put(filterKey, data)
}

// LoadFrom reads an automaton previously persisted with PersistTo.
func LoadFrom(s *storage.Store) (*Filter, error) {
	data, ok := s.Get(filterKey)
	if !ok {
		return nil, fmt.Errorf("vfilter: no automaton in store")
	}
	return UnmarshalBinary(data)
}

// StoredSize reports the automaton's serialized size in bytes — the S_i
// of Figure 11.
func (f *Filter) StoredSize() int {
	data, err := f.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(data)
}
