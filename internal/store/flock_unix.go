//go:build unix

package store

import (
	"os"
	"syscall"
)

// flockEx takes the advisory exclusive lock on f, blocking until it is
// granted. flock is per open-file-description, so two *Store handles
// in one process serialize exactly like two processes do.
func flockEx(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			return err
		}
	}
}

// flockUn releases the advisory lock.
func flockUn(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}

// replaced reports whether the open segment behind fi has been
// replaced: a compaction renamed a new file over the path, leaving this
// one with no directory entry.
func replaced(fi os.FileInfo, _ string) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return !ok || st.Nlink == 0
}
