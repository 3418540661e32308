package experiment

import (
	"strings"

	"amrt/internal/sim"
)

// metricsFileName maps a run label to a safe file name.
func metricsFileName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String() + ".metrics.json"
}

// DefaultMetricsInterval is the telemetry sampling period applied when
// a configuration leaves the interval unset: 100 µs of virtual time
// (see docs/TELEMETRY.md). Every layer that resolves an interval —
// amrt.Config, SimConfig, LeafSpineRun — goes through
// MetricsIntervalOrDefault so the default lives in exactly one place.
const DefaultMetricsInterval = 100 * sim.Microsecond

// MetricsIntervalOrDefault returns iv when positive, otherwise
// DefaultMetricsInterval.
func MetricsIntervalOrDefault(iv sim.Time) sim.Time {
	if iv > 0 {
		return iv
	}
	return DefaultMetricsInterval
}
