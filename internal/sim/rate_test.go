package sim

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRateTxTime(t *testing.T) {
	cases := []struct {
		rate Rate
		size int
		want Time
	}{
		{10 * Gbps, 1500, 1200},        // 1500B @10G = 1.2µs
		{Gbps, 1500, 12000},            // 1500B @1G = 12µs
		{10 * Gbps, 64, 52},            // 51.2ns rounds up
		{40 * Gbps, 1500, 300},         // 1500B @40G = 300ns
		{100 * Mbps, 1500, 120 * 1000}, // 120µs
		{10 * Gbps, 0, 0},              // zero-size
		{0, 1500, Forever},             // zero rate never transmits
	}
	for _, c := range cases {
		if got := c.rate.TxTime(c.size); got != c.want {
			t.Errorf("%v.TxTime(%d) = %v, want %v", c.rate, c.size, got, c.want)
		}
	}
}

func TestRateBytesIn(t *testing.T) {
	if got := (10 * Gbps).BytesIn(100 * Microsecond); got != 125000 {
		t.Errorf("BDP(10G,100µs) = %d, want 125000", got)
	}
	if got := (Gbps).BytesIn(Second); got != 125000000 {
		t.Errorf("BytesIn(1G,1s) = %d", got)
	}
	if got := (Gbps).BytesIn(-1); got != 0 {
		t.Errorf("BytesIn negative duration = %d, want 0", got)
	}
	// A busy period past 0.92 s at 10 Gbit/s: the bit/s × ns product
	// no longer fits an int64, the byte count does.
	if got := (10 * Gbps).BytesIn(2 * Second); got != 2_500_000_000 {
		t.Errorf("BytesIn(10G,2s) = %d, want 2500000000", got)
	}
}

// FuzzBytesIn holds BytesIn to exact arithmetic: for a positive rate
// and duration it returns floor(d × r / 8e9) whenever that fits an
// int64, and panics otherwise; for any other input it returns 0.
func FuzzBytesIn(f *testing.F) {
	for _, c := range [][2]int64{
		{int64(100 * Microsecond), int64(10 * Gbps)},
		{int64(920 * Millisecond), int64(10 * Gbps)},
		{int64(2 * Second), int64(10 * Gbps)},
		{math.MaxInt64, math.MaxInt64},
		{math.MaxInt64, 8_000_000_000},
		{math.MaxInt64, 8_000_000_001},
		{1, 7_999_999_999},
		{0, int64(Gbps)},
		{-1, int64(Gbps)},
		{int64(Second), -1},
	} {
		f.Add(c[0], c[1])
	}
	limit := big.NewInt(math.MaxInt64)
	f.Fuzz(func(t *testing.T, d, r int64) {
		want := new(big.Int).Mul(big.NewInt(d), big.NewInt(r))
		want.Quo(want, big.NewInt(8*int64(Second)))
		if d <= 0 || r <= 0 {
			want.SetInt64(0)
		}
		got, panicked := func() (n int64, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return Rate(r).BytesIn(Time(d)), false
		}()
		switch fits := want.Cmp(limit) <= 0; {
		case !fits && !panicked:
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, want a panic: %v does not fit an int64", r, d, got, want)
		case fits && panicked:
			t.Fatalf("Rate(%d).BytesIn(%d) panicked, want %v", r, d, want)
		case fits && got != want.Int64():
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, want %v", r, d, got, want)
		}
	})
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{10 * Gbps, "10Gbps"},
		{Gbps, "1Gbps"},
		{250 * Mbps, "250Mbps"},
		{5 * Kbps, "5Kbps"},
		{100, "100bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

// Property: transmitting n packets back-to-back never exceeds the rate:
// total tx time >= bits/rate exactly-or-rounded-up.
func TestRateTxTimeNeverUnderestimates(t *testing.T) {
	f := func(size uint16, rateG uint8) bool {
		r := Rate(int64(rateG%100+1)) * Gbps
		tx := r.TxTime(int(size))
		exact := float64(size) * 8 * 1e9 / float64(r)
		return float64(tx) >= exact && float64(tx) < exact+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
