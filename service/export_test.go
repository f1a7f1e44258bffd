package service

// Test-only exports for the external test package.
var (
	BenchBodies      = benchBodies
	DecodeSearchBody = decodeSearchRequest
	DecodeTableBody  = decodeTablePayload
	KeysSuffix       = keysSuffix
	MutationOf       = mutationOf
	WALRecord        = walRecord
)
