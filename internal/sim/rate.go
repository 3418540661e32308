package sim

import (
	"fmt"
	"math/bits"
)

// Rate is a link or pacing rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// TxTime returns the time needed to serialize size bytes at rate r,
// rounded up to the next nanosecond so that a sequence of transmissions
// never exceeds the physical rate.
func (r Rate) TxTime(size int) Time {
	if r <= 0 {
		return Forever
	}
	bits := int64(size) * 8
	ns := (bits*int64(Second) + int64(r) - 1) / int64(r)
	return Time(ns)
}

// BytesIn returns the number of bytes that can be serialized at rate r
// within duration d, rounded down. The bit/s × ns product is taken in
// 128 bits, so the result is exact for every d and r; one that does not
// fit an int64 panics.
func (r Rate) BytesIn(d Time) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	const bitNs = 8 * uint64(Second)
	hi, lo := bits.Mul64(uint64(d), uint64(r))
	// The quotient fits an int64 exactly when the product is below
	// 2^63 × bitNs, whose high word is bitNs/2.
	if hi >= bitNs/2 {
		panic(fmt.Sprintf("sim: %v × %v is more bytes than an int64 holds", r, d))
	}
	q, _ := bits.Div64(hi, lo, bitNs)
	return int64(q)
}

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.4gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}
