package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var updateQuick = flag.Bool("update", false, "rewrite the quick-experiment goldens in testdata/quick")

// TestExperimentsQuickGolden runs every experiment at its quick
// configuration and compares each CSV it writes byte for byte with
// testdata/quick. A change to construction, estimation or the packed scan
// that moves any reported figure fails here. Regenerate with
// `go test ./cmd/ipsketch -run TestExperimentsQuickGolden -update` only
// when a change is meant to move the figures.
func TestExperimentsQuickGolden(t *testing.T) {
	dir := t.TempDir()
	if code, _, errOut := runCmd("experiments", "-run", "all", "-quick", "-csvdir", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	golden := filepath.Join("testdata", "quick")
	got := csvNames(t, dir)
	if *updateQuick {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
	} else if want := csvNames(t, golden); !slices.Equal(got, want) {
		t.Fatalf("experiments wrote %v, goldens are %v", got, want)
	}
	for _, name := range got {
		out, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(golden, name)
		if *updateQuick {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s differs from its golden:\n--- got\n%s--- want\n%s", name, out, want)
		}
	}
}

// csvNames lists the CSV files in dir, sorted.
func csvNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}
