package store

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"autonosql/internal/cluster"
)

// defaultVirtualNodes is the number of ring positions each physical node
// occupies. More virtual nodes smooth key ownership when the cluster is
// small.
const defaultVirtualNodes = 64

// Ring is a consistent-hash ring mapping keys to an ordered preference list
// of replica nodes, in the style of Dynamo/Cassandra token rings.
type Ring struct {
	vnodes  int
	tokens  []ringToken
	members map[cluster.NodeID]bool
}

type ringToken struct {
	hash uint64
	node cluster.NodeID
}

// NewRing creates an empty ring. vnodes <= 0 selects the default of 64
// virtual nodes per member.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[cluster.NodeID]bool)}
}

// Members returns the node IDs currently on the ring, sorted.
func (r *Ring) Members() []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of member nodes.
func (r *Ring) Size() int { return len(r.members) }

// Contains reports whether the node is a ring member.
func (r *Ring) Contains(id cluster.NodeID) bool { return r.members[id] }

// Add inserts a node into the ring. Adding an existing member is a no-op.
func (r *Ring) Add(id cluster.NodeID) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	name := id.String() + "#"
	for v := 0; v < r.vnodes; v++ {
		r.tokens = append(r.tokens, ringToken{hash: hashString(name + strconv.Itoa(v)), node: id})
	}
	slices.SortFunc(r.tokens, func(a, b ringToken) int { return cmp.Compare(a.hash, b.hash) })
}

// Remove deletes a node from the ring. Removing a non-member is a no-op.
func (r *Ring) Remove(id cluster.NodeID) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.tokens[:0]
	for _, t := range r.tokens {
		if t.node != id {
			kept = append(kept, t)
		}
	}
	r.tokens = kept
}

// ReplicasFor returns the preference list of up to rf distinct nodes
// responsible for the key, walking the ring clockwise from the key's token.
func (r *Ring) ReplicasFor(key Key, rf int) []cluster.NodeID {
	return r.AppendReplicasFor(nil, key, rf)
}

// AppendReplicasFor appends the key's preference list to dst and returns the
// extended slice, so per-operation callers can reuse a scratch buffer instead
// of allocating. Deduplication is a linear scan over the appended tail:
// preference lists hold at most the cluster's node count entries, where a
// scan beats a map by a wide margin.
func (r *Ring) AppendReplicasFor(dst []cluster.NodeID, key Key, rf int) []cluster.NodeID {
	return r.appendReplicasAt(dst, hashString(key), rf)
}

// appendReplicasAt is AppendReplicasFor for a key whose ring token is already
// known; the store memoises tokens per key id.
func (r *Ring) appendReplicasAt(dst []cluster.NodeID, token uint64, rf int) []cluster.NodeID {
	if rf <= 0 || len(r.tokens) == 0 {
		return dst
	}
	if rf > len(r.members) {
		rf = len(r.members)
	}
	lo := r.searchToken(token)
	base := len(dst)
walk:
	for i := 0; i < len(r.tokens) && len(dst)-base < rf; i++ {
		t := r.tokens[(lo+i)%len(r.tokens)]
		for _, existing := range dst[base:] {
			if existing == t.node {
				continue walk
			}
		}
		dst = append(dst, t.node)
	}
	return dst
}

// appendBiasedAt is the placement-aware variant of appendReplicasAt: the
// clockwise walk runs twice, first admitting only nodes whose membership
// in set matches preferIn (the preferred pool), then filling any remaining
// slots from the rest of the ring. A pinned tenant passes its class's
// dedicated nodes with preferIn=true and gets a replica set anchored on
// them; everyone else passes the same set with preferIn=false and is steered
// onto the shared pool, spilling onto dedicated nodes only when the shared
// pool cannot satisfy the replication factor. Like appendReplicasAt it
// allocates nothing beyond dst's capacity.
func (r *Ring) appendBiasedAt(dst []cluster.NodeID, token uint64, rf int, set []cluster.NodeID, preferIn bool) []cluster.NodeID {
	if rf <= 0 || len(r.tokens) == 0 {
		return dst
	}
	if rf > len(r.members) {
		rf = len(r.members)
	}
	lo := r.searchToken(token)
	base := len(dst)
preferred:
	for i := 0; i < len(r.tokens) && len(dst)-base < rf; i++ {
		t := r.tokens[(lo+i)%len(r.tokens)]
		if slices.Contains(set, t.node) != preferIn {
			continue
		}
		for _, existing := range dst[base:] {
			if existing == t.node {
				continue preferred
			}
		}
		dst = append(dst, t.node)
	}
fill:
	for i := 0; i < len(r.tokens) && len(dst)-base < rf; i++ {
		t := r.tokens[(lo+i)%len(r.tokens)]
		for _, existing := range dst[base:] {
			if existing == t.node {
				continue fill
			}
		}
		dst = append(dst, t.node)
	}
	return dst
}

// searchToken returns the index of the first token with hash >= h (an
// inlined sort.Search over the token ring).
func (r *Ring) searchToken(h uint64) int {
	lo, hi := 0, len(r.tokens)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.tokens[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Primary returns the first node in the key's preference list.
func (r *Ring) Primary(key Key) (cluster.NodeID, bool) {
	reps := r.ReplicasFor(key, 1)
	if len(reps) == 0 {
		return 0, false
	}
	return reps[0], true
}

// FNV-1a 64-bit parameters, matching hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashString hashes s with FNV-1a and then passes the result through a
// 64-bit avalanche finaliser (MurmurHash3's fmix64). Plain FNV clusters badly
// for short, similar strings such as "node-1#17", which skews ring ownership;
// the finaliser restores uniformity. The FNV loop is written out rather than
// using hash/fnv so per-lookup callers pay no allocation for the hasher or
// the string-to-bytes conversion. It takes a key's name as a string or as the
// bytes of one, so a canonical key hashes from a stack buffer.
func hashString[S ~string | ~[]byte](s S) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return fmix64(h)
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
