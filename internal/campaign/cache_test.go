package campaign

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCacheRejectsMalformedKeys(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"", "a", "../..", "ab/cd", "a.b", "ab\\cd", "key with space"}
	for _, key := range bad {
		if err := c.Put(key, []byte(`{}`)); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("Get(%q) reported a hit for a malformed key", key)
		}
	}
	// No malformed key may have escaped the cache root or created files.
	if n := c.Len(); n != 0 {
		t.Errorf("malformed keys left %d entries behind", n)
	}
}

// TestNewCacheRefusesUnopenablePaths: a directory path with a NUL byte
// (which the kernel would cut short) or one past the platform's limit
// is an error, as it is for os.MkdirAll.
func TestNewCacheRefusesUnopenablePaths(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{root + "/a\x00b", root + "/" + strings.Repeat("d", 5000)} {
		if _, err := NewCache(dir); err == nil {
			t.Errorf("NewCache(%.40q…) accepted", dir)
		}
	}
}

func TestCacheShortButValidKeysRoundTrip(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// Keys of length 2..8 exercise both the shard slice (key[:2]) and
	// the temp-file prefix, which must not slice past the key's end.
	for n := 2; n <= 8; n++ {
		key := strings.Repeat("k", n)
		payload := []byte(`{"n":` + strings.Repeat("1", n) + `}`)
		if err := c.Put(key, payload); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
		got, ok := c.Get(key)
		if !ok || string(got) != string(payload) {
			t.Errorf("Get(%q) = %q, %v", key, got, ok)
		}
	}
}

// TestCacheEntriesOfEverySizeRoundTrip: Get reads an entry with no
// fstat for its size, into a 1 KiB buffer it grows when a read fills
// it; entries of the smallest size, just under, at and over that
// buffer's, and far over it, read back whole.
func TestCacheEntriesOfEverySizeRoundTrip(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "size")
	// The header line and its newline, and the payload's two quotes.
	overhead := len(headerLine(nil, key, nil)) + 1 + 2
	for _, size := range []int{overhead, 1023, 1024, 1025, 2048, 1 << 20} {
		payload := []byte(`"` + strings.Repeat("x", size-overhead) + `"`)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok || string(got) != string(payload) {
			t.Errorf("%d-byte payload: Get returned %d bytes, hit %v", len(payload), len(got), ok)
		}
	}
}

// TestClosedCacheMisses: after Close, Get reports a miss and Put still
// writes; a new Cache on the same directory reads the entry.
func TestClosedCacheMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("v1", "closed")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("a closed cache reported a hit")
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got, ok := c2.Get(key); !ok || string(got) != `{}` {
		t.Errorf("reopened cache: Get = %q, %v", got, ok)
	}
}
