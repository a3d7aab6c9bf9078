package mgs

// The reference basis, for the external test package.
var ReferenceQ = referenceQ
