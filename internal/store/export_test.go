package store

import "math"

// SetRecycling switches op-state recycling; TestOpStateReuseInvisible turns it
// off for whole runs to compare their reports.
func SetRecycling(on bool) { recycleOps = on }

// NearVersionExhaustion moves the store's version counter to one below the
// last version it can hand out, so the next write takes math.MaxUint32 and
// the one after finds the version space exhausted.
func NearVersionExhaustion(s *Store) { s.nextVersion = math.MaxUint32 - 1 }
