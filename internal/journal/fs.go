package journal

import (
	"io"
	"os"
)

// File is the journal's view of one open file: sequential writes, fsync
// and close. *os.File satisfies it natively, so the real-filesystem path
// pays only an interface dispatch — no wrapper allocation per operation.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file's buffered writes to stable storage.
	Sync() error
}

// FS is the storage seam: every filesystem operation the journal, the
// wfstore file log and the cluster WAL-replay path perform goes through
// one of these methods. Production uses OSFS; the chaos harness swaps in
// a FaultFS that injects write errors, short writes, fsync failures that
// lose buffered data, ENOSPC and read-side bit flips (see faultfs.go).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole of name, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes name, like os.Remove.
	Remove(name string) error
	// Truncate resizes name to size bytes, like os.Truncate.
	Truncate(name string, size int64) error
	// Stat stats name, like os.Stat.
	Stat(name string) (os.FileInfo, error)
}

// OSFS returns the real filesystem.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)  { return os.Stat(name) }
