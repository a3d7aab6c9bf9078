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

// unlinked reports whether the open file behind fi has no directory
// entry left.
func unlinked(fi os.FileInfo) bool {
	st, ok := fi.Sys().(*syscall.Stat_t)
	return !ok || st.Nlink == 0
}
