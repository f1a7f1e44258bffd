package service

import (
	"runtime/debug"
	"sync"
)

// Version identifies the build; override at link time:
//
//	go build -ldflags "-X repro/service.Version=v1.2.3" ./cmd/sketchd
//
// When left at "dev", BuildInfo falls back to the module version the Go
// toolchain recorded, if any.
var Version = "dev"

// VersionInfo describes the running build, surfaced on /healthz and
// /statsz so a running daemon says which build it is.
type VersionInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"` // dirty working tree at build time
}

var buildInfoOnce = sync.OnceValue(func() VersionInfo {
	vi := VersionInfo{Version: Version}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return vi
	}
	vi.GoVersion = bi.GoVersion
	if vi.Version == "dev" && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		vi.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			vi.Revision = s.Value
		case "vcs.modified":
			vi.Modified = s.Value == "true"
		}
	}
	return vi
})

// BuildInfo returns the running build's identity (ldflags-injected
// Version plus whatever debug.ReadBuildInfo recorded), computed once.
func BuildInfo() VersionInfo { return buildInfoOnce() }
