package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"amrt/internal/sim"
)

// jitterBatch is how many draws a jitterStream makes at a time. A
// delivery reads its draw from the stream's buffer; the 4.9 KB generator
// state behind it is walked once per batch, not once per delivery.
const jitterBatch = 16

// jitterStream is a port's jitter stream (see Port.jit): exactly the
// values rand.New(src).Int63n(max) would return, in the same order, each
// plus one, drawn a batch ahead into buf. The rejection bound of max is
// computed once, when the stream is taken. Streams are recycled whole
// through jitterStreams, buffer and generator together.
type jitterStream struct {
	// pos is the next unread draw in buf; jitterBatch once it is spent.
	pos int
	buf [jitterBatch]sim.Time
	// max is the exclusive bound of the underlying Int63n draws. bound
	// is the largest Int63 value Int63n(max) accepts when max is not a
	// power of two; pow2 says it is, and the value is masked instead.
	max   int64
	bound int64
	pow2  bool
	src   rand.Source64
}

// arm readies the stream to draw in (0, max], discarding anything left
// in its buffer.
func (s *jitterStream) arm(max int64) {
	s.max = max
	s.pow2 = max&(max-1) == 0
	s.bound = int64((1 << 63) - 1 - (1<<63)%uint64(max))
	s.pos = jitterBatch
}

// next returns the stream's next draw, refilling the buffer when it is
// spent.
func (s *jitterStream) next() sim.Time {
	if s.pos == jitterBatch {
		s.refill()
	}
	d := s.buf[s.pos]
	s.pos++
	return d
}

// refill draws the next batch, the way math/rand's Int63n does: mask a
// power of two, else reject values above bound and reduce the rest.
func (s *jitterStream) refill() {
	src, max := s.src, s.max
	if s.pow2 {
		for i := range s.buf {
			s.buf[i] = sim.Time(src.Int63()&(max-1)) + 1
		}
	} else {
		for i := range s.buf {
			v := src.Int63()
			for v > s.bound {
				v = src.Int63()
			}
			s.buf[i] = sim.Time(v%max) + 1
		}
	}
	s.pos = 0
}

// JitterSeed returns the seed of the port's jitter stream: the network
// jitter seed sub-seeded with "jitter." + Name(), hashed from the two
// ends' names without building that string.
func (p *Port) JitterSeed() int64 {
	return sim.SubSeed(p.net.jitterSeed, "jitter.", p.owner.Name(), "->", p.link.To.Name())
}

// startJitter gives the port its stream at its first draw (see
// JitterSeed).
func (p *Port) startJitter() *jitterStream {
	if p.net.released {
		panic(fmt.Sprintf("netsim: port %s draws jitter on a released network", p.Name()))
	}
	p.jit = takeJitterStream(p.JitterSeed(), int64(p.net.jitterMax))
	return p.jit
}

// jitterStreams is the free list of jitter streams (see Port.jit). A
// math/rand source is 4.9 KB, and a campaign builds hundreds of
// short-lived networks with a hundred-odd ports each. Shard goroutines
// and campaign workers take from it concurrently, at a port's first
// draw only.
var jitterStreams struct {
	sync.Mutex
	free []*jitterStream
}

// maxFreeJitterStreams bounds the list, ≈ 5 MB of streams: more than
// the 768 ports of a k=8 fat-tree, so a campaign of those recycles every
// stream, and a few networks' worth for campaigns of smaller fabrics
// running side by side. A release onto a full list leaves the rest to
// the collector.
const maxFreeJitterStreams = 1024

// takeJitterStream returns a stream seeded with seed and armed for max:
// recycled from the free list, or new when the list is empty.
func takeJitterStream(seed, max int64) *jitterStream {
	fl := &jitterStreams
	fl.Lock()
	var s *jitterStream
	if n := len(fl.free); n > 0 {
		s = fl.free[n-1]
		fl.free[n-1] = nil
		fl.free = fl.free[:n-1]
	}
	fl.Unlock()
	if s == nil {
		s = &jitterStream{src: rand.NewSource(seed).(rand.Source64)}
	} else {
		s.src.Seed(seed)
	}
	s.arm(max)
	return s
}

// releaseJitter hands every port's stream back to the free list.
func (n *Network) releaseJitter() {
	fl := &jitterStreams
	fl.Lock()
	defer fl.Unlock()
	n.eachPort(func(p *Port) {
		s := p.jit
		if s == nil {
			return
		}
		p.jit = nil
		if len(fl.free) < maxFreeJitterStreams {
			fl.free = append(fl.free, s)
		}
	})
}
