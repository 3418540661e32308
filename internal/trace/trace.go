// Package trace records simulation events — flow lifecycles, packet
// deliveries, drops — into structured, written-once records that can be
// dumped as CSV for offline analysis. It is the debugging companion to
// the aggregate statistics in internal/stats: where stats answers "how
// fast", trace answers "what happened to flow 17".
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// EventKind classifies trace records.
type EventKind uint8

// Event kinds.
const (
	FlowStart EventKind = iota
	FlowDone
	PacketDelivered
	PacketDropped
)

var kindNames = [...]string{"start", "done", "deliver", "drop"}

// String returns the CSV tag of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.
type Event struct {
	At   sim.Time
	Kind EventKind
	Flow netsim.FlowID
	Seq  int32
	Size int
	Note string
}

// Recorder accumulates events. The zero value is ready to use; attach
// it to a network and transport with Attach.
type Recorder struct {
	Events []Event
	// MaxEvents bounds memory (0 = unbounded); when full, further
	// events are counted but not stored.
	MaxEvents int
	// TruncatedEvents counts records lost to the MaxEvents cap.
	TruncatedEvents int64
}

// Add appends an event, honoring the cap.
func (r *Recorder) Add(e Event) {
	if r.MaxEvents > 0 && len(r.Events) >= r.MaxEvents {
		r.TruncatedEvents++
		return
	}
	r.Events = append(r.Events, e)
}

// Attach hooks the recorder into a network's drop stream and the
// transport hooks (OnData / OnDone) of the protocol config. Existing
// hooks are chained, not replaced. On an unpartitioned network this
// records everything; sharded runs attach one recorder per shard with
// AttachShard and merge afterwards.
func (r *Recorder) Attach(net *netsim.Network, cfg *transport.Config) {
	r.AttachShard(net.Shard(0), cfg)
}

// AttachShard hooks the recorder into one shard's drop stream and the
// transport hooks of that shard's protocol config. The recorder then
// only ever runs on the shard's goroutine; use Absorb to merge per-shard
// recorders after the run.
func (r *Recorder) AttachShard(sh *netsim.Shard, cfg *transport.Config) {
	eng := sh.Eng()
	prevDrop := sh.DropHook
	sh.DropHook = func(pkt *netsim.Packet) {
		r.Add(Event{At: eng.Now(), Kind: PacketDropped, Flow: pkt.Flow, Seq: pkt.Seq, Size: pkt.Size, Note: pkt.Type.String()})
		if prevDrop != nil {
			prevDrop(pkt)
		}
	}
	prevData := cfg.OnData
	cfg.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
		r.Add(Event{At: eng.Now(), Kind: PacketDelivered, Flow: f.ID, Seq: pkt.Seq, Size: pkt.Size})
		if prevData != nil {
			prevData(f, pkt)
		}
	}
	prevDone := cfg.OnDone
	cfg.OnDone = func(f *transport.Flow) {
		r.Add(Event{At: f.End, Kind: FlowDone, Flow: f.ID, Size: int(f.Size)})
		if prevDone != nil {
			prevDone(f)
		}
	}
}

// Absorb appends every event of the given recorders (and their
// truncation counts) into r, in argument order. The canonical sort in
// WriteCSV makes the merged dump independent of that order; callers
// that read Events directly should sort as needed.
func (r *Recorder) Absorb(parts ...*Recorder) {
	for _, p := range parts {
		if p == nil || p == r {
			continue
		}
		r.Events = append(r.Events, p.Events...)
		r.TruncatedEvents += p.TruncatedEvents
	}
}

// RecordStart notes a flow's injection (call alongside AddFlow).
func (r *Recorder) RecordStart(f *transport.Flow) {
	r.Add(Event{At: f.Start, Kind: FlowStart, Flow: f.ID, Size: int(f.Size)})
}

// WriteCSV dumps all events in canonical order: time first, then the
// full record content (kind, flow, seq, size, note). Sorting by content
// rather than by recording order makes the bytes written a pure
// function of the set of events, so a merged multi-shard trace is
// byte-identical to the single-shard reference. Records are formatted
// into one buffer and reach w in large writes.
func (r *Recorder) WriteCSV(w io.Writer) error {
	evs := slices.Clone(r.Events)
	slices.SortFunc(evs, Compare)
	// bufio keeps the first write error; Write and Flush return it.
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString("t_us,kind,flow,seq,size,note\n")
	var line []byte
	for _, e := range evs {
		line = appendMicros(line[:0], e.At)
		line = append(line, ',')
		line = append(line, e.Kind.String()...)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(e.Flow), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(e.Seq), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(e.Size), 10)
		line = append(line, ',')
		line = append(line, e.Note...)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Compare orders events as WriteCSV prints them: by time, then by the
// rest of the record (kind, flow, seq, size, note).
func Compare(a, b Event) int {
	switch {
	case a.At != b.At:
		return cmp.Compare(a.At, b.At)
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	case a.Flow != b.Flow:
		return cmp.Compare(a.Flow, b.Flow)
	case a.Seq != b.Seq:
		return cmp.Compare(a.Seq, b.Seq)
	case a.Size != b.Size:
		return cmp.Compare(a.Size, b.Size)
	}
	return strings.Compare(a.Note, b.Note)
}

// appendMicros appends t in microseconds with three decimals: the bytes
// fmt's %.3f prints for t.Microseconds() (FuzzAppendMicros). On
// 0 ≤ t < 2^51 ns (26 days) the float64 quotient lies within a quarter
// of a unit of the third decimal of the exact one, so the integer
// digits ns/1000 "." ns%1000 are those bytes; outside that range it
// formats the float.
func appendMicros(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1<<51 {
		return strconv.AppendFloat(b, t.Microseconds(), 'f', 3, 64)
	}
	b = strconv.AppendInt(b, int64(t/sim.Microsecond), 10)
	frac := int64(t % sim.Microsecond)
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// FlowSummary condenses one flow's records.
type FlowSummary struct {
	Flow      netsim.FlowID
	Start     sim.Time
	End       sim.Time
	Done      bool
	Delivered int
	Dropped   int
}

// Summaries aggregates per-flow views of the event stream, ordered by
// flow ID.
func (r *Recorder) Summaries() []FlowSummary {
	byFlow := map[netsim.FlowID]*FlowSummary{}
	order := []netsim.FlowID{}
	get := func(id netsim.FlowID) *FlowSummary {
		s := byFlow[id]
		if s == nil {
			s = &FlowSummary{Flow: id}
			byFlow[id] = s
			order = append(order, id)
		}
		return s
	}
	for _, e := range r.Events {
		s := get(e.Flow)
		switch e.Kind {
		case FlowStart:
			s.Start = e.At
		case FlowDone:
			s.End = e.At
			s.Done = true
		case PacketDelivered:
			s.Delivered++
		case PacketDropped:
			s.Dropped++
		}
	}
	slices.Sort(order)
	out := make([]FlowSummary, 0, len(order))
	for _, id := range order {
		out = append(out, *byFlow[id])
	}
	return out
}
