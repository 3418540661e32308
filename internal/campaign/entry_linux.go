package campaign

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// openDir opens the handle on the cache root that readEntry reads
// through, creating the directory first if it is missing. It allocates
// nothing whose size depends on the length of the path.
func (c *Cache) openDir() error {
	switch {
	case len(c.dir) >= syscall.PathMax:
		return &os.PathError{Op: "open", Path: c.dir, Err: syscall.ENAMETOOLONG}
	case strings.IndexByte(c.dir, 0) >= 0:
		// The kernel would read the path only up to the NUL.
		return &os.PathError{Op: "open", Path: c.dir, Err: syscall.EINVAL}
	}
	var buf [syscall.PathMax]byte
	name := append(append(buf[:0], c.dir...), 0)
	const flags = syscall.O_RDONLY | syscall.O_DIRECTORY | syscall.O_CLOEXEC
	fd, errno := openat(_AT_FDCWD, name, flags)
	if errno == syscall.ENOENT {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return err
		}
		fd, errno = openat(_AT_FDCWD, name, flags)
	}
	if errno != 0 {
		return &os.PathError{Op: "open", Path: c.dir, Err: errno}
	}
	c.fd = fd
	runtime.SetFinalizer(c, (*Cache).Close)
	return nil
}

// Close releases the handle on the cache root; Get reports a miss from
// then on, and Put still writes. It must not run while a Get does. A
// Cache never closed releases its handle when it is collected.
func (c *Cache) Close() error {
	runtime.SetFinalizer(c, nil)
	fd := c.fd
	c.fd = -1
	return syscall.Close(fd)
}

// _AT_FDCWD makes openat resolve a relative name against the working
// directory, as open does.
const _AT_FDCWD = -0x64

// openat opens name, a NUL-terminated path relative to the directory
// dirfd, retrying when a signal interrupts it. syscall.Openat would
// copy a string path to the heap.
func openat(dirfd int, name []byte, flags int) (int, syscall.Errno) {
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd),
			uintptr(unsafe.Pointer(&name[0])), uintptr(flags), 0, 0, 0)
		if errno != syscall.EINTR {
			return int(fd), errno
		}
	}
}

// readEntry appends the file at name (NUL-terminated, relative to the
// cache root) to buf with three system calls: openat on the root's
// handle, read, close. The descriptor stays blocking and out of the
// runtime's poller, which a regular file gains nothing from, and there
// is no fstat for the size: a read that leaves buf room to spare ended
// the file, and one that fills it grows buf and reads on. A read cut
// short some other way only truncates the entry, which then fails
// Get's checksum: a miss, never data.
func (c *Cache) readEntry(name, buf []byte) ([]byte, bool) {
	defer runtime.KeepAlive(c) // its finalizer closes c.fd
	fd, errno := openat(c.fd, name, syscall.O_RDONLY|syscall.O_CLOEXEC)
	if errno != 0 {
		return nil, false
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		free := buf[len(buf):cap(buf)]
		n, err := syscall.Read(fd, free)
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, false
		case n < len(free):
			return buf[:len(buf)+n], true
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
