// Package store implements the simulated eventually-consistent key-value
// store whose inconsistency window the paper's autonomous system monitors
// and controls. The model follows the Dynamo/Cassandra lineage: keys map to
// replicas through a consistent-hash Ring, operations run through a
// coordinator at a tunable consistency level (ONE, TWO, QUORUM, ALL), and
// replicas that were not needed for the acknowledgement converge
// asynchronously via replication applies, read repair, hinted handoff and
// anti-entropy sweeps.
//
// The consistency-related knobs — replication factor and the read and write
// consistency levels — are exactly the parameters the paper's controller
// adjusts at run time, so they can be changed on a live Store through the
// Set* methods.
//
// The Store keeps ground truth the rest of the system must not see: the true
// inconsistency window of every write (the time from client acknowledgement
// until the last replica converged) and the count of stale reads actually
// served. Experiments read these through Stats and RecentWindowQuantile to
// score the monitor's estimates and the controller's decisions; controllers
// only ever observe the monitor. An Observer hook exposes coordinator-side
// write acknowledgement spreads, which is what passive monitoring consumes;
// a ClientObserver receives each client operation's outcome (IssueAs).
//
// A Key is a key's name; operations travel under a KeyID, a dense integer the
// per-key state is indexed by (keys.go). Read and Write take a name and
// resolve it; ReadID, WriteID and IssueAs take the id.
package store
