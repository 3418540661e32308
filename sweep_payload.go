package amrt

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"amrt/internal/campaign"
	"amrt/internal/experiment"
)

// decodePoint is the one place a sweep payload is decoded: the
// campaign's Decode for a cache hit, and buildSweepResult's for a
// computed point, so both reach the report through the same bytes. A
// payload is the json.Marshal encoding of a Result, and decodePoint
// accepts exactly those bytes: the fields in declaration order, no
// white space, numbers and strings as json.Marshal spells them.
// Anything else — a hand-edited or foreign entry, a field added or
// renamed without a SimVersion bump — is an error, which the campaign
// treats as a miss and recomputes.
func decodePoint(payload []byte) (any, campaign.Metrics, error) {
	d := payloadDecoder{b: payload}
	r := new(Result)
	d.lit(`{"Protocol":`)
	r.Protocol = d.str()
	d.lit(`,"Workload":`)
	r.Workload = d.str()
	d.lit(`,"Load":`)
	r.Load = d.float()
	d.lit(`,"Completed":`)
	r.Completed = int(d.int(strconv.IntSize))
	d.lit(`,"Total":`)
	r.Total = int(d.int(strconv.IntSize))
	d.lit(`,"AFCT":`)
	r.AFCT = time.Duration(d.int(64))
	d.lit(`,"P99":`)
	r.P99 = time.Duration(d.int(64))
	d.lit(`,"Utilization":`)
	r.Utilization = d.float()
	d.lit(`,"Drops":`)
	r.Drops = d.int(64)
	d.lit(`,"Trims":`)
	r.Trims = d.int(64)
	d.lit(`,"Events":`)
	r.Events = d.uint()
	d.lit(`,"Stalled":`)
	r.Stalled = int(d.int(strconv.IntSize))
	d.lit(`,"Killed":`)
	r.Killed = int(d.int(strconv.IntSize))
	d.lit(`,"DeadlineTotal":`)
	r.DeadlineTotal = int(d.int(strconv.IntSize))
	d.lit(`,"DeadlineMissed":`)
	r.DeadlineMissed = int(d.int(strconv.IntSize))
	d.lit(`}`)
	if d.bad || len(d.b) != 0 {
		return nil, campaign.Metrics{}, errNotMarshalled
	}
	return r, metricsOf(*r), nil
}

var errNotMarshalled = errors.New("amrt: sweep payload is not a json.Marshal'd Result")

// knownNames are the strings a payload's Protocol and Workload usually
// hold; decoding one returns the constant instead of a copy.
var knownNames = append(experiment.StackNames(), Workloads()...)

// payloadDecoder consumes a payload from the front. The first mismatch
// sets bad; every later call then returns a zero value.
type payloadDecoder struct {
	b   []byte
	bad bool
}

// lit consumes s.
func (d *payloadDecoder) lit(s string) {
	if d.bad || !bytes.HasPrefix(d.b, []byte(s)) {
		d.bad = true
		return
	}
	d.b = d.b[len(s):]
}

// token consumes the run of bytes a JSON number is made of.
func (d *payloadDecoder) token() []byte {
	i := 0
	for i < len(d.b) && strings.IndexByte("0123456789+-.eE", d.b[i]) >= 0 {
		i++
	}
	tok := d.b[:i]
	d.b = d.b[i:]
	return tok
}

// float consumes a number json.Marshal writes for a float64: the
// shortest representation that reads back, in exponent form below 1e-6
// and from 1e21 up, with the exponent unpadded.
func (d *payloadDecoder) float() float64 {
	tok := d.token()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || !bytes.Equal(tok, appendJSONFloat(buf[:0], f)) {
		d.bad = true
		return 0
	}
	return f
}

// appendJSONFloat appends f as json.Marshal writes a float64.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// json.Marshal writes e-9, not e-09.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// int consumes a decimal integer that fits a signed integer of the
// given bit size: no sign but a leading '-', no leading zero, no "-0".
func (d *payloadDecoder) int(bits int) int64 {
	neg := len(d.b) > 0 && d.b[0] == '-'
	if neg {
		d.b = d.b[1:]
	}
	u := d.uint()
	switch limit := uint64(1) << (bits - 1); {
	case neg && (u == 0 || u > limit), !neg && u >= limit:
		d.bad = true
		return 0
	case neg:
		return -int64(u)
	}
	return int64(u)
}

// uint consumes a decimal integer that fits a uint64, no sign and no
// leading zero.
func (d *payloadDecoder) uint() uint64 {
	tok := d.token()
	if d.bad || len(tok) == 0 || tok[0] == '0' && len(tok) > 1 {
		d.bad = true
		return 0
	}
	var u uint64
	for _, c := range tok {
		v := uint64(c - '0')
		if c < '0' || c > '9' || u > (math.MaxUint64-v)/10 {
			d.bad = true
			return 0
		}
		u = 10*u + v
	}
	return u
}

// str consumes a string as json.Marshal quotes a valid UTF-8 one.
// What it escapes must be escaped exactly as it does: \" \\ \b \f \n
// \r \t, \u00xx (lower-case hex) for the other control bytes and for
// < > &, and \u2028 and \u2029; everything else is raw UTF-8. The
// \ufffd that stands for invalid UTF-8 is refused: it decodes to a
// string json.Marshal writes differently.
func (d *payloadDecoder) str() string {
	if d.bad || len(d.b) == 0 || d.b[0] != '"' {
		d.bad = true
		return ""
	}
	end := 1 // the closing quote, or the first byte needing more than a copy
	for end < len(d.b) && d.b[end] != '"' && d.b[end] != '\\' && d.b[end] >= ' ' && d.b[end] < utf8.RuneSelf &&
		d.b[end] != '<' && d.b[end] != '>' && d.b[end] != '&' {
		end++
	}
	if end < len(d.b) && d.b[end] == '"' {
		raw := d.b[1:end]
		d.b = d.b[end+1:]
		for _, name := range knownNames {
			if string(raw) == name {
				return name
			}
		}
		return string(raw)
	}
	out := append([]byte(nil), d.b[1:end]...)
	d.b = d.b[end:]
	for len(d.b) > 0 {
		c := d.b[0]
		switch {
		case c == '"':
			d.b = d.b[1:]
			return string(out)
		case c == '\\':
			if r, n := unescape(d.b); n > 0 {
				out = utf8.AppendRune(out, r)
				d.b = d.b[n:]
				continue
			}
		case c >= utf8.RuneSelf:
			if r, n := utf8.DecodeRune(d.b); r != utf8.RuneError && r != '\u2028' && r != '\u2029' || n == 3 && r == utf8.RuneError {
				out = append(out, d.b[:n]...)
				d.b = d.b[n:]
				continue
			}
		case c >= ' ' && c != '<' && c != '>' && c != '&':
			out = append(out, c)
			d.b = d.b[1:]
			continue
		}
		break
	}
	d.bad = true
	return ""
}

// unescape decodes the escape sequence at the front of b, returning its
// rune and length, or a zero length for a sequence json.Marshal would
// not have written.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		var r rune
		for _, c := range b[2:6] {
			switch {
			case c >= '0' && c <= '9':
				r = r<<4 | rune(c-'0')
			case c >= 'a' && c <= 'f':
				r = r<<4 | rune(c-'a'+10)
			default:
				return 0, 0
			}
		}
		switch r {
		case '\b', '\f', '\n', '\r', '\t':
		case '<', '>', '&', '\u2028', '\u2029':
			return r, 6
		default:
			if r < ' ' {
				return r, 6
			}
		}
	}
	return 0, 0
}
