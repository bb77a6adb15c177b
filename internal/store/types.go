// Package store implements a simulated eventually-consistent replicated
// key-value store in the style of Dynamo-family systems (Cassandra, Riak):
// consistent-hash partitioning, N-way replication, tunable per-operation
// consistency levels, read repair, hinted handoff and periodic anti-entropy.
//
// The store runs entirely on the discrete-event simulation engine. For every
// acknowledged write it records the *true inconsistency window*: the period
// between the client acknowledgement and the moment the last live replica of
// the key has applied the write. That window — and how it reacts to load,
// replication factor, consistency level, background platform load and
// reconfiguration actions — is the quantity the paper's autonomous system
// monitors and controls.
package store

import (
	"errors"
	"fmt"
)

// Key identifies a data item.
type Key string

// ConsistencyLevel is the number of replica acknowledgements an operation
// waits for, expressed symbolically as in Cassandra.
type ConsistencyLevel int

// Supported consistency levels.
const (
	// One waits for a single replica.
	One ConsistencyLevel = iota + 1
	// Two waits for two replicas.
	Two
	// Quorum waits for floor(RF/2)+1 replicas.
	Quorum
	// All waits for every replica.
	All
)

// String implements fmt.Stringer.
func (c ConsistencyLevel) String() string {
	switch c {
	case One:
		return "ONE"
	case Two:
		return "TWO"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	default:
		return fmt.Sprintf("CL(%d)", int(c))
	}
}

// Required returns how many replica acknowledgements the level needs for a
// replication factor rf. The result is clamped to [1, rf].
func (c ConsistencyLevel) Required(rf int) int {
	if rf < 1 {
		rf = 1
	}
	var n int
	switch c {
	case One:
		n = 1
	case Two:
		n = 2
	case Quorum:
		n = rf/2 + 1
	case All:
		n = rf
	default:
		n = 1
	}
	if n < 1 {
		n = 1
	}
	if n > rf {
		n = rf
	}
	return n
}

// Stricter reports whether c requires at least as many acks as other at the
// given replication factor and more for at least one comparison point.
func (c ConsistencyLevel) Stricter(other ConsistencyLevel, rf int) bool {
	return c.Required(rf) > other.Required(rf)
}

// ParseConsistencyLevel parses a symbolic level name (case-sensitive,
// Cassandra style).
func ParseConsistencyLevel(s string) (ConsistencyLevel, error) {
	switch s {
	case "ONE", "one":
		return One, nil
	case "TWO", "two":
		return Two, nil
	case "QUORUM", "quorum":
		return Quorum, nil
	case "ALL", "all":
		return All, nil
	default:
		return 0, fmt.Errorf("store: unknown consistency level %q", s)
	}
}

// Errors returned by store operations.
var (
	// ErrUnavailable is returned when fewer replicas than the consistency
	// level requires are reachable.
	ErrUnavailable = errors.New("store: not enough replicas available")
	// ErrNoNodes is returned when the cluster has no available nodes at all.
	ErrNoNodes = errors.New("store: no available nodes")
	// ErrStopped is returned for operations submitted after Close.
	ErrStopped = errors.New("store: stopped")
	// ErrVersionsExhausted is returned for a write issued after the store
	// has handed out its last version, math.MaxUint32.
	ErrVersionsExhausted = errors.New("store: version space exhausted")
)

// OpKind distinguishes reads from writes in results and metrics.
type OpKind int

// Operation kinds.
const (
	// OpRead is a client read.
	OpRead OpKind = iota + 1
	// OpWrite is a client write.
	OpWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}
