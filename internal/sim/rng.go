package sim

import "math/rand"

// NewRNG returns a deterministic random source for a simulation run.
// Distinct streams within one run should derive sub-seeds via SubSeed so
// that adding a consumer does not perturb the draws seen by others.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SubSeed derives a stable sub-seed for the named stream. It uses the
// FNV-1a hash of the name mixed with the parent seed, so streams are
// independent of declaration order. A name given in parts hashes as
// their concatenation: SubSeed(s, "a.", "b") == SubSeed(s, "a.b"), and
// the caller builds no string.
func SubSeed(seed int64, name ...string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, part := range name {
		for i := 0; i < len(part); i++ {
			h ^= uint64(part[i])
			h *= prime64
		}
	}
	h ^= uint64(seed)
	h *= prime64
	// Keep it positive so callers can feed it straight into rand.NewSource.
	return int64(h &^ (1 << 63))
}

// Exponential draws an exponentially distributed duration with the given
// mean. It is used for Poisson inter-arrival times.
func Exponential(rng *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(rng.ExpFloat64() * float64(mean))
}
