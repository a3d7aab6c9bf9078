//go:build !unix

package store

import "os"

// Without flock the store is still crash-safe for a single process;
// cross-process sharing of one directory is unsynchronized on this
// platform and should be avoided.
func flockEx(*os.File) error { return nil }

func flockUn(*os.File) error { return nil }

// replaced reports whether path no longer names the open segment
// behind fi. Without link counts it compares the two files' identity.
func replaced(fi os.FileInfo, path string) bool {
	cur, err := os.Stat(path)
	return err != nil || !os.SameFile(fi, cur)
}
