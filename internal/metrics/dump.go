package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion tags the JSON dump format; docs/TELEMETRY.md documents
// it field by field. Bump it on any incompatible change.
const SchemaVersion = "amrt-metrics/v1"

// The dump structs mirror the documented JSON schema. Field order here
// is the field order in the file.

type jsonDump struct {
	Schema     string       `json:"schema"`
	IntervalUs float64      `json:"interval_us"`
	StartUs    float64      `json:"start_us"`
	Counters   []jsonScalar `json:"counters"`
	Gauges     []jsonGauge  `json:"gauges"`
	Series     []jsonSeries `json:"series"`
}

type jsonScalar struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonGauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type jsonSeries struct {
	Name       string    `json:"name"`
	IntervalUs float64   `json:"interval_us"`
	FirstUs    float64   `json:"first_us"`
	Dropped    int64     `json:"dropped"`
	Samples    []float64 `json:"samples"`
}

// snapshot evaluates every instrument and returns the sorted dump.
func (r *Registry) snapshot() jsonDump {
	d := jsonDump{
		Schema:   SchemaVersion,
		Counters: []jsonScalar{},
		Gauges:   []jsonGauge{},
		Series:   []jsonSeries{},
	}
	if r == nil {
		return d
	}
	d.IntervalUs = r.interval.Microseconds()
	d.StartUs = r.startAt.Microseconds()
	for _, c := range r.counters {
		d.Counters = append(d.Counters, jsonScalar{c.name, c.v})
	}
	for _, f := range r.counterFns {
		d.Counters = append(d.Counters, jsonScalar{f.name, f.fn()})
	}
	for _, g := range r.gauges {
		d.Gauges = append(d.Gauges, jsonGauge{g.name, clean(g.v)})
	}
	for _, s := range r.series {
		vals := s.Values()
		for i, v := range vals {
			vals[i] = clean(v)
		}
		if vals == nil {
			vals = []float64{}
		}
		d.Series = append(d.Series, jsonSeries{
			Name:       s.name,
			IntervalUs: s.interval.Microseconds(),
			FirstUs:    s.firstAt.Microseconds(),
			Dropped:    s.dropped,
			Samples:    vals,
		})
	}
	sort.Slice(d.Counters, func(i, j int) bool { return d.Counters[i].Name < d.Counters[j].Name })
	sort.Slice(d.Gauges, func(i, j int) bool { return d.Gauges[i].Name < d.Gauges[j].Name })
	sort.Slice(d.Series, func(i, j int) bool { return d.Series[i].Name < d.Series[j].Name })
	return d
}

// clean maps NaN and ±Inf to 0 — encoding/json rejects them, and a
// telemetry file should never fail to write because one gauge divided
// by zero.
func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// WriteJSON writes the dump documented in docs/TELEMETRY.md:
// instruments in sorted-name order, canonical float formatting, so
// identical runs produce byte-identical files. A nil registry writes a
// valid empty dump.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding dump: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV writes the time-series portion of the dump as one wide CSV:
// a t_us column followed by one column per series in sorted-name
// order, rows aligned on the shared tick timeline. A series that has no
// sample at a row's time (registered late, or its oldest samples were
// evicted) leaves the cell empty. Counters and gauges are JSON-only.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil || len(r.series) == 0 {
		_, err := fmt.Fprintln(w, "t_us")
		return err
	}
	series := make([]*TimeSeries, len(r.series))
	copy(series, r.series)
	sort.Slice(series, func(i, j int) bool { return series[i].name < series[j].name })

	header := make([]string, 0, len(series)+1)
	header = append(header, "t_us")
	for _, s := range series {
		header = append(header, csvEscape(s.name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}

	iv := r.interval
	if iv <= 0 {
		return nil // never started; header only
	}
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range series {
		if s.count == 0 {
			continue
		}
		f := int64(s.firstAt)
		l := f + int64(s.count-1)*int64(iv)
		if f < first {
			first = f
		}
		if l > last {
			last = l
		}
	}
	if first > last {
		return nil // no samples anywhere
	}
	row := make([]string, len(series)+1)
	for t := first; t <= last; t += int64(iv) {
		row[0] = strconv.FormatFloat(float64(t)/1e3, 'g', -1, 64)
		for i, s := range series {
			row[i+1] = ""
			if s.count == 0 {
				continue
			}
			idx := (t - int64(s.firstAt)) / int64(iv)
			if idx >= 0 && idx < int64(s.count) {
				row[i+1] = strconv.FormatFloat(clean(s.At(int(idx))), 'g', -1, 64)
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains CSV metacharacters (port
// names contain no commas today, but the format should not silently
// corrupt if one ever does).
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
