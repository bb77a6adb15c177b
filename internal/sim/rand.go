package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RandSource hands out independent, deterministically seeded random number
// streams. Each named stream is derived from the root seed and the stream
// name, so adding a new consumer of randomness does not perturb the sequences
// observed by existing consumers.
type RandSource struct {
	seed int64
}

// NewRandSource returns a source rooted at seed.
func NewRandSource(seed int64) *RandSource {
	return &RandSource{seed: seed}
}

// Seed returns the root seed of the source.
func (s *RandSource) Seed() int64 { return s.seed }

// DeriveSeed deterministically derives a child seed from a root seed and a
// name. Distinct names yield independent child seeds for the same root, and
// the derivation is stable across runs and platforms, so both the random
// streams inside one scenario and the per-variant seeds of a scenario suite
// can be derived without coordination.
func DeriveSeed(root int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const mix = int64(0x9E3779B97F4A7C15 >> 1)
	return int64(h.Sum64()) ^ (root * mix)
}

// Stream returns a dedicated *rand.Rand for the named consumer.
func (s *RandSource) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(s.seed, name))) //nolint:gosec // simulation determinism, not crypto
}

// Exponential draws an exponentially distributed duration with the given
// mean from rng. It is the inter-arrival primitive used by Poisson arrival
// processes throughout the simulator.
func Exponential(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// LogNormal draws a log-normally distributed value parameterised by the
// median and a shape sigma. Service times and network jitter use this shape,
// matching the heavy-tailed latencies seen in real storage clusters; they
// sample it from a LogNormalTable, and LogNormal is the exact reference.
func LogNormal(rng *rand.Rand, median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(sigma*rng.NormFloat64())
}

// Zipf builds a zipfian integer generator over [0, n) with exponent s >= 1.
// It falls back to uniform when parameters are degenerate.
type Zipf struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	n       uint64
	uniform bool
}

// NewZipf constructs a zipfian generator. n must be >= 1.
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	if n == 0 {
		n = 1
	}
	if s <= 1 {
		return &Zipf{rng: rng, n: n, uniform: true}
	}
	return &Zipf{rng: rng, zipf: rand.NewZipf(rng, s, 1, n-1), n: n}
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() uint64 {
	if z.uniform || z.zipf == nil {
		return uint64(z.rng.Int63n(int64(z.n)))
	}
	return z.zipf.Uint64()
}
