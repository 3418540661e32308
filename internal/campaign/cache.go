package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// envelopeVersion is the on-disk cache entry format; bump on layout
// changes so old entries read as misses instead of garbage. Version 2
// is a header line (headerLine) followed by the raw payload; version 1
// wrapped the payload in a JSON envelope.
const envelopeVersion = 2

// headerLine appends to dst the first line of the entry that stores
// payload under key, a one-line JSON object without its newline:
//
//	{"version":2,"key":"<key>","sha256":"<hex SHA-256 of payload>"}
//
// The checksum makes rehydration verified byte-identical: a truncated
// or bit-rotted entry reads as a miss, never as data.
func headerLine(dst []byte, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, envelopeVersion, 10)
	dst = append(dst, `,"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","sha256":"`...)
	dst = hex.AppendEncode(dst, sum[:])
	return append(dst, `"}`...)
}

// Cache is a content-addressed on-disk result store. Entries live at
// <dir>/<key[:2]>/<key>.json (two-hex-digit fan-out keeps directories
// small on big campaigns); keys are Key digests of the normalized run
// configuration, so a config change — or a SimVersion bump — naturally
// misses. Writes are atomic (temp file + rename), so a campaign killed
// mid-write never leaves a partial entry that a resume would trust.
// Reads go through a handle on dir the Cache holds from NewCache until
// Close, so a hit costs the same at any length of dir.
type Cache struct {
	dir string
	// fd is the handle on dir that readEntry opens entries relative
	// to, where the platform has one (see openDir).
	fd int
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{dir: dir}
	if err := c.openDir(); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// validateKey rejects keys the on-disk layout cannot address safely:
// anything shorter than the two characters the shard fan-out slices,
// and any character outside [0-9A-Za-z_-] (which also rules out path
// separators and dot traversal — a key is a digest, never a path).
// Every entry point validates before slicing, so a malformed key is an
// error (Put) or a miss (Get), never a panic.
func validateKey(key string) error {
	if len(key) < 2 {
		return fmt.Errorf("campaign: cache key %q too short (need at least 2 characters)", key)
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '-':
		default:
			return fmt.Errorf("campaign: cache key %q contains %q (allowed: [0-9A-Za-z_-])", key, r)
		}
	}
	return nil
}

// path maps a validated key to its entry file; callers must run
// validateKey first so the shard slice below cannot panic or traverse
// outside the cache root.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// entryName appends to dst the NUL-terminated name of key's entry
// relative to the cache root, <key[:2]>/<key>.json, for readEntry;
// validateKey must have accepted key.
func entryName(dst []byte, key string) []byte {
	dst = append(append(dst, key[:2]...), '/')
	return append(append(dst, key...), ".json\x00"...)
}

// Get returns the payload stored under key. Any failure — malformed
// key, missing entry, unreadable file, header/key/checksum mismatch —
// reports a miss; the caller recomputes and overwrites, which is the
// safe resolution for every corruption mode. The payload is never
// parsed: the header line must equal the one Put would write for this
// key and the payload's checksum, and the payload is returned as stored.
func (c *Cache) Get(key string) ([]byte, bool) {
	if validateKey(key) != nil {
		return nil, false
	}
	// An entry is a header line of about 150 bytes and a payload; a
	// sweep point's fits the stack buffer, a larger one grows it.
	var name [128]byte
	var stack [1024]byte
	raw, ok := c.readEntry(entryName(name[:0], key), stack[:0])
	if !ok {
		return nil, false
	}
	line, payload, found := bytes.Cut(raw, []byte{'\n'})
	var want [256]byte
	if !found || !bytes.Equal(line, headerLine(want[:0], key, payload)) {
		return nil, false
	}
	return bytes.Clone(payload), true
}

// Put stores payload under key, atomically replacing any prior entry:
// one header line, then the payload bytes as given. The key must
// satisfy the shape validateKey enforces (≥ 2 characters of
// [0-9A-Za-z_-]); the payload may be any bytes.
func (c *Cache) Put(key string, payload []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	entry := append(append(headerLine(nil, key, payload), '\n'), payload...)
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("campaign: cache shard dir: %w", err)
	}
	return WriteAtomic(path, entry)
}

// WriteAtomic commits data to path with the temp-file+rename idiom: the
// bytes go to a temporary file beside path, which is closed and then
// renamed over it, so a reader, or a restart after a kill, finds the
// old file or the new one and never a partial write. The temporary file
// is removed when any step fails. Cache.Put and the server's job ledger
// both write through it.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: temp file: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("campaign: write %s: %w", path, werr)
		}
		return fmt.Errorf("campaign: close %s: %w", path, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: commit %s: %w", path, err)
	}
	return nil
}

// Len walks the cache and returns the number of committed entries —
// diagnostics for tests and the sweep CLI, not a hot path.
func (c *Cache) Len() int {
	n := 0
	filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}
