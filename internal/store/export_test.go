package store

// SetRecycling switches op-state recycling; TestOpStateReuseInvisible turns it
// off for whole runs to compare their reports.
func SetRecycling(on bool) { recycleOps = on }
