// Package metrics provides the small measurement primitives the simulator
// and controllers share: a bucketed Histogram with quantile estimation (the
// backbone of every latency and inconsistency-window percentile in the
// reports), a WindowedStat over the most recent samples, an exponentially
// weighted moving average, counters, gauges, and a TimeSeries of
// timestamped observations used to record how metrics evolve over a run and
// to render the figure-like ASCII series output.
package metrics
