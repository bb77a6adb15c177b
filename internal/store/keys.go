package store

import (
	"iter"
	"slices"
	"strconv"
)

// KeyID is the dense integer handle the operation path carries instead of a
// key's name. A non-negative id i is the key "key-<i>" of the canonical
// namespace every built-in key chooser draws from: the id is a pure function
// of the index, so workload drivers — including those running on other
// goroutines — produce ids without touching shared state. Every other key
// (probe keys, raw trace keys, canonical indices at or beyond denseKeys) is
// interned on first sight and gets a negative id. Either way an id is a
// function of the key, never of which driver happened to ask first.
type KeyID int

// denseKeys bounds the canonical indices that index per-key slices directly.
// Larger indices are interned under their name instead, so one far-out key
// costs a table entry, not a slice of that length.
const denseKeys = 1 << 20

// CanonicalIndex reports the index i of a name in the canonical "key-<i>"
// namespace. Other spellings of an index ("key-007", "key-+7") are different
// keys and report ok=false.
func CanonicalIndex(k Key) (int, bool) {
	s := string(k)
	if len(s) < 5 || s[:4] != "key-" || s[4] < '0' || s[4] > '9' || (s[4] == '0' && len(s) > 5) {
		return 0, false
	}
	i, err := strconv.Atoi(s[4:])
	return i, err == nil
}

// appendCanonical appends the canonical name of index i to buf.
func appendCanonical(buf []byte, i int) []byte {
	return strconv.AppendInt(append(buf, "key-"...), int64(i), 10)
}

// CanonicalKey spells out the canonical name "key-<i>".
func CanonicalKey(i int) Key {
	var buf [24]byte
	return Key(appendCanonical(buf[:0], i))
}

// pageBits sets a column page to 1<<pageBits slots.
const pageBits = 10

// page is one fixed-size block of a column.
type page[T any] [1 << pageBits]T

// column is one per-key attribute indexed by KeyID: a directory of pages for
// the dense canonical ids and one for the interned ids. A page is allocated
// the first time one of its slots is touched and never moves, so nothing is
// sized by a keyspace up front and growing copies nothing but the
// directory's page pointers. The zero value of T means "never set".
type column[T any] struct {
	dense    []*page[T]
	interned []*page[T]
}

// at returns the slot of id, allocating its page if need be.
func (c *column[T]) at(id KeyID) *T {
	dir, i := &c.dense, int(id)
	if id < 0 {
		dir, i = &c.interned, ^int(id)
	}
	p := i >> pageBits
	if p >= len(*dir) {
		*dir = slices.Grow(*dir, p+1-len(*dir))[:p+1]
	}
	pg := (*dir)[p]
	if pg == nil {
		pg = new(page[T])
		(*dir)[p] = pg
	}
	return &pg[i&(len(pg)-1)]
}

// get returns the value held for id, zero when its page was never touched.
func (c *column[T]) get(id KeyID) (v T) {
	dir, i := c.dense, int(id)
	if id < 0 {
		dir, i = c.interned, ^int(id)
	}
	if p := i >> pageBits; p < len(dir) && dir[p] != nil {
		v = dir[p][i&(len(dir[p])-1)]
	}
	return v
}

// all iterates every slot of every touched page, set or not: dense ids
// ascending, then interned ids in the order they were interned.
func (c *column[T]) all() iter.Seq2[KeyID, T] {
	return func(yield func(KeyID, T) bool) {
		for p, pg := range c.dense {
			if pg == nil {
				continue
			}
			for j, v := range pg {
				if !yield(KeyID(p<<pageBits|j), v) {
					return
				}
			}
		}
		for p, pg := range c.interned {
			if pg == nil {
				continue
			}
			for j, v := range pg {
				if !yield(KeyID(^(p<<pageBits | j)), v) {
					return
				}
			}
		}
	}
}

// Keys resolves between key names and ids. The canonical namespace resolves
// by arithmetic; everything else goes through the intern table, in the order
// names are first seen. A Keys belongs to one goroutine (its store's).
type Keys struct {
	// names holds the interned names and, for dense ids, each canonical name
	// the first time somebody asks for it.
	names column[Key]
	ids   map[Key]KeyID
}

// ID returns the id of a named key, interning the name if need be.
func (k *Keys) ID(name Key) KeyID {
	if i, ok := CanonicalIndex(name); ok && i < denseKeys {
		return KeyID(i)
	}
	if id, ok := k.ids[name]; ok {
		return id
	}
	return k.intern(name)
}

func (k *Keys) intern(name Key) KeyID {
	if k.ids == nil {
		k.ids = make(map[Key]KeyID)
	}
	id := KeyID(^len(k.ids))
	*k.names.at(id) = name
	k.ids[name] = id
	return id
}

// local maps an id as clients pass it to the id per-key columns are indexed
// by: a canonical index too large to be dense is interned under its name.
func (k *Keys) local(id KeyID) KeyID {
	if id < denseKeys {
		return id
	}
	var buf [24]byte
	name := appendCanonical(buf[:0], int(id))
	if in, ok := k.ids[Key(name)]; ok {
		return in
	}
	return k.intern(Key(name))
}

// Name returns the name of id, materialising a dense canonical name at most
// once. An interned id nobody was given has no name.
func (k *Keys) Name(id KeyID) Key {
	if id < 0 {
		return k.names.get(id)
	}
	if id >= denseKeys {
		return CanonicalKey(int(id))
	}
	name := k.names.at(id)
	if *name == "" {
		*name = CanonicalKey(int(id))
	}
	return *name
}

// NamedTarget is an operation target that only speaks key names: a test
// double, or anything written against the name-based Read/Write pair.
type NamedTarget interface {
	Read(key Key, cb func(Result))
	Write(key Key, cb func(Result))
}

// NameAdapter lets a NamedTarget sit below layers that issue operations by
// id: it keeps a name table of its own and hands the target each key's name.
type NameAdapter struct {
	keys   Keys
	target NamedTarget
}

// AdaptNames wraps target for by-id callers.
func AdaptNames(target NamedTarget) *NameAdapter { return &NameAdapter{target: target} }

// KeyID resolves a name against the adapter's own table.
func (a *NameAdapter) KeyID(name Key) KeyID { return a.keys.ID(name) }

// KeyName returns the name the adapter hands its target for id.
func (a *NameAdapter) KeyName(id KeyID) Key { return a.keys.Name(id) }

// ReadID forwards a read under the key's name.
func (a *NameAdapter) ReadID(id KeyID, cb func(Result)) { a.target.Read(a.keys.Name(id), cb) }

// WriteID forwards a write under the key's name.
func (a *NameAdapter) WriteID(id KeyID, cb func(Result)) { a.target.Write(a.keys.Name(id), cb) }
