package igrid

// The reference grid and checksum, for the external test package.
var ReferenceGrid, ReferenceChecksum = referenceGrid, referenceChecksum
