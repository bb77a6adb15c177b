package store

import (
	"autonosql/internal/cluster"
)

// version is a monotonically increasing logical version assigned by the
// coordinator; conflict resolution is last-writer-wins on version number.
// Versions are 32 bits wide, which halves every per-key version column; the
// store numbers writes from 1 to math.MaxUint32, and a write that would need
// a version beyond that fails with ErrVersionsExhausted instead of wrapping
// (Result.Version stays 64 bits wide).
type version uint32

// replicaState is the per-node view of the keyspace: for each key, the
// highest version that node has applied so far. Values themselves are not
// materialised — consistency behaviour depends only on versions.
type replicaState struct {
	node     cluster.NodeID
	versions column[version]
	// held counts the distinct keys with a version (versions start at 1).
	held int
}

func newReplicaState(node cluster.NodeID) *replicaState {
	return &replicaState{node: node}
}

// apply records that the replica has applied the given version of key,
// unless it already holds a newer one (last-writer-wins).
func (r *replicaState) apply(key KeyID, v version) {
	cur := r.versions.at(key)
	if *cur >= v {
		return
	}
	if *cur == 0 {
		r.held++
	}
	*cur = v
}

// read returns the version the replica currently holds for key (zero when
// the replica has never seen the key).
func (r *replicaState) read(key KeyID) version {
	return r.versions.get(key)
}

// keys returns the number of distinct keys the replica holds.
func (r *replicaState) keys() int { return r.held }
