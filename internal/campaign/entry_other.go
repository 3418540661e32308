//go:build !linux

package campaign

import (
	"os"
	"path/filepath"
)

// openDir creates the cache root if it is missing; readEntry opens
// entries by path here, with no handle on the root.
func (c *Cache) openDir() error { return os.MkdirAll(c.dir, 0o755) }

// Close does nothing: there is no handle to release here.
func (c *Cache) Close() error { return nil }

// readEntry appends the file at name (NUL-terminated, relative to the
// cache root) to buf.
func (c *Cache) readEntry(name, buf []byte) ([]byte, bool) {
	raw, err := os.ReadFile(filepath.Join(c.dir, string(name[:len(name)-1])))
	return append(buf, raw...), err == nil
}
