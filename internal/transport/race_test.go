//go:build race

package transport

// The race detector makes sync.Pool drop a quarter of its Puts, so
// packet recycling allocates and allocation counts mean nothing.
func init() { raceEnabled = true }
