package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ipsketch "repro"
	"repro/service"
)

// runCmd runs the command line and returns its exit status and output.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestJoinCommand(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "left.csv"), filepath.Join(dir, "right.csv")
	if err := os.WriteFile(a, []byte("k,v\nx,1\ny,2\nz,3\nw,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("k,u\ny,5\nz,6\nq,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// KMV with a budget above both key sets stores them whole, so the
	// estimates are exact.
	code, out, errOut := runCmd("join", "-a", a, "-b", b, "-method", "kmv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"join left.v ⋈ right.u  (method=KMV", "size                   2.0000         2.0000", "inner_product         28.0000        28.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code, _, _ := runCmd("join", "-a", a); code != 2 {
		t.Errorf("join without -b: exit %d, want 2", code)
	}
}

func TestSearchCommand(t *testing.T) {
	code, out, errOut := runCmd("search", "-tables", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "planted table found at rank 1") {
		t.Fatalf("planted table not ranked first:\n%s", out)
	}
}

// TestSearchCommandRemote ranks the same lake through a server configured
// as the hint asks; the printed ranking matches the in-process one.
func TestSearchCommandRemote(t *testing.T) {
	srv, err := service.New(service.Config{
		Sketch:   ipsketch.Config{Method: ipsketch.MethodWMH, StorageWords: 400, Seed: 7},
		KeySpace: 32000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	code, remote, errOut := runCmd("search", "-tables", "10", "-remote", hs.URL)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	_, local, _ := runCmd("search", "-tables", "10")
	if remote != local {
		t.Fatalf("remote ranking differs from in-process:\n%s\nvs\n%s", remote, local)
	}
}

func TestExperimentsCommand(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCmd("experiments", "-run", "table1", "-quick", "-csvdir", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Table 1 verification") {
		t.Fatalf("no Table 1 in output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.csv")); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCmd("experiments", "-run", "fig9"); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"join", "-method", "NOPE"},
		{"search", "-method", "NOPE"},
		{"join", "-agg", "median"},
	} {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
