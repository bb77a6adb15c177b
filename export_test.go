package autonosql

import "autonosql/internal/obs"

// RetainedTraces returns a traced scenario's retained op traces, finished
// or not, for the external tests.
func RetainedTraces(s *Scenario) []*obs.OpTrace { return s.tracer.Traces() }

// LatencyCounts returns how many samples the store's read and write latency
// histograms hold, for the external tests.
func LatencyCounts(s *Scenario) (reads, writes uint64) {
	st := s.store.Stats()
	return st.ReadLatency.Count, st.WriteLatency.Count
}
