// Package core implements the paper's primary contribution: an SLA-driven
// autonomous controller that continuously monitors the inconsistency window
// of an eventually-consistent store and reconfigures / re-provisions the
// database cluster to keep the window, latency, availability and cost within
// the application's SLA.
//
// The controller follows the MAPE-K pattern:
//
//   - Monitor: the controller consumes periodic monitor.Snapshot values. It
//     never sees simulator ground truth, so monitoring error propagates into
//     its decisions exactly as it would in a real deployment.
//   - Analyze: the Analyzer classifies the system state (window too high,
//     latency too high, availability low, over-provisioned, nominal) and
//     attributes a likely root cause (CPU saturation, network congestion,
//     loose consistency configuration, excess capacity).
//   - Plan: the Planner selects the single most appropriate reconfiguration
//     action — tighten or relax the write consistency level, tighten the
//     read consistency level, add or remove nodes, throttle or release a
//     tenant, pin or unpin an SLA class — honouring per-action cooldowns,
//     hysteresis bands around the SLA targets and the paper's explicit
//     warning that adding replication traffic under network congestion only
//     makes the problem worse.
//   - Execute: the Controller applies the action through an Actuator bound to
//     the store and cluster.
//   - Knowledge: the planner's KnowledgeBase is a cooldown ledger of when
//     each (action kind, scope) pair was last applied. It does not judge an
//     action by the window that follows it: a veto that did so made runs
//     dearer (EXPERIMENTS.md, knowledge-base ablation).
//
// A LoadPredictor adds the "smart" part of smart auto-scaling: it forecasts
// the offered load one bootstrap-time ahead and provisions capacity before
// the window or latency deteriorates, instead of reacting after the fact.
package core
