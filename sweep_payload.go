package amrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"amrt/internal/experiment"
)

// A sweep point's payload is its cell record, written by encodePoint
// and read by decodePoint and nowhere else: Protocol and Workload, each
// a length byte followed by its bytes, then Result's 13 numeric fields
// in declaration order, each 8 little-endian bytes (a float64 as its
// IEEE 754 bits, a signed integer as its two's complement). A new field
// is one more word on each side and a SimVersion bump.
const recordWords = 13

// encodePoint returns r's cell record. A name longer than 255 bytes has
// no record, and is an error.
func encodePoint(r Result) ([]byte, error) {
	if len(r.Protocol) > math.MaxUint8 || len(r.Workload) > math.MaxUint8 {
		return nil, fmt.Errorf("amrt: sweep point %q/%q: a name longer than 255 bytes has no cell record", r.Protocol, r.Workload)
	}
	b := make([]byte, 0, 2+len(r.Protocol)+len(r.Workload)+8*recordWords)
	b = append(append(b, byte(len(r.Protocol))), r.Protocol...)
	b = append(append(b, byte(len(r.Workload))), r.Workload...)
	for _, w := range [recordWords]uint64{
		math.Float64bits(r.Load), uint64(r.Completed), uint64(r.Total),
		uint64(r.AFCT), uint64(r.P99), math.Float64bits(r.Utilization),
		uint64(r.Drops), uint64(r.Trims), r.Events,
		uint64(r.Stalled), uint64(r.Killed), uint64(r.DeadlineTotal), uint64(r.DeadlineMissed),
	} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b, nil
}

// decodePoint is the one place a sweep payload is decoded: the
// campaign's Decode checks a cache hit with it, and buildSweepResult
// reads every point's report row with it, hit or computed. Any payload
// of another length, or with an int field out of the platform's int
// range, is an error, which the campaign treats as a miss and
// recomputes.
func decodePoint(b []byte) (Result, error) {
	var r Result
	r.Protocol, b = cutName(b)
	r.Workload, b = cutName(b)
	if len(b) != 8*recordWords {
		return Result{}, errBadRecord
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	bad := false
	integer := func(i int) int {
		v := int64(word(i))
		bad = bad || int64(int(v)) != v
		return int(v)
	}
	r.Load = math.Float64frombits(word(0))
	r.Completed, r.Total = integer(1), integer(2)
	r.AFCT, r.P99 = time.Duration(word(3)), time.Duration(word(4))
	r.Utilization = math.Float64frombits(word(5))
	r.Drops, r.Trims, r.Events = int64(word(6)), int64(word(7)), word(8)
	r.Stalled, r.Killed = integer(9), integer(10)
	r.DeadlineTotal, r.DeadlineMissed = integer(11), integer(12)
	if bad {
		return Result{}, errBadRecord
	}
	return r, nil
}

var errBadRecord = errors.New("amrt: sweep payload is not a cell record")

// knownNames are the strings a record's Protocol and Workload usually
// hold; decoding one returns the constant instead of a copy.
var knownNames = append(experiment.StackNames(), Workloads()...)

// cutName consumes a length-prefixed name from the front of b. A
// truncated name leaves b too short for the words, so the length check
// that follows refuses it.
func cutName(b []byte) (string, []byte) {
	if len(b) == 0 || len(b) <= int(b[0]) {
		return "", nil
	}
	raw, rest := b[1:1+int(b[0])], b[1+int(b[0]):]
	for _, name := range knownNames {
		if string(raw) == name {
			return name, rest
		}
	}
	return string(raw), rest
}
