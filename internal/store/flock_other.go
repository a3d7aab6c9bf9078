//go:build !unix

package store

import "os"

// Without flock the store is still crash-safe for a single process;
// cross-process sharing of one directory is unsynchronized on this
// platform and should be avoided.
func flockEx(*os.File) error { return nil }

func flockUn(*os.File) error { return nil }

// unlinked cannot tell here, so every refresh re-reads CURRENT.
func unlinked(os.FileInfo) bool { return true }
