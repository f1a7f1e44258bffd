package service

// Test-only exports for the external test package.
var (
	BenchBodies      = benchBodies
	DecodeSearchBody = decodeSearchRequest
	DecodeTableBody  = decodeTablePayload
	MutationOf       = mutationOf
	WALRecord        = walRecord
)
