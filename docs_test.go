package ipsketch

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var backticked = regexp.MustCompile("`([^`]+)`")

// TestDocsNameExistingFiles: every backticked repository path in
// README.md and DESIGN.md — anything under cmd/, internal/, bench/,
// service/ or testdata/, and any root-level .go or .json file — must
// exist, so a deletion cannot leave the documents pointing at it. Tokens
// that are patterns rather than paths ({a,b}, *, …) are skipped.
func TestDocsNameExistingFiles(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				path := m[1]
				if strings.ContainsAny(path, "{*…") || !isRepoPath(path) {
					continue
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d names `%s`, which does not exist", doc, n+1, path)
				}
			}
		}
	}
}

// isRepoPath reports whether a backticked token claims to be a file or
// directory of this repository.
func isRepoPath(tok string) bool {
	if strings.ContainsAny(tok, " \t") {
		return false
	}
	for _, dir := range []string{"cmd/", "internal/", "bench/", "service/", "testdata/"} {
		if strings.HasPrefix(tok, dir) {
			return true
		}
	}
	return !strings.Contains(tok, "/") &&
		(strings.HasSuffix(tok, ".go") || strings.HasSuffix(tok, ".json"))
}
