package service

// Test-only exports for the external test package's benchmarks.
var (
	BenchBodies      = benchBodies
	DecodeSearchBody = decodeSearchRequest
	DecodeTableBody  = decodeTablePayload
)
