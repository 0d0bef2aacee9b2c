package comm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sleepPollAllowed lists the sleep-polls still left in the runtime layers,
// by file and enclosing function, each with the ROADMAP item that removes it.
var sleepPollAllowed = map[string]string{
	"../core/abort.go:sweepTabled": "ROADMAP item 16(d): the abort sweeper waits on an event",
}

// TestNoSleepPolls keeps waits in comm, rt and core event-driven: no
// time.Sleep, time.NewTicker or time.Tick in their non-test code outside
// sleepPollAllowed. tcptransport is exempt: its accept backoff is not a poll.
func TestNoSleepPolls(t *testing.T) {
	banned := map[string]bool{"Sleep": true, "NewTicker": true, "Tick": true}
	seen := map[string]bool{}
	for _, dir := range []string{".", "../rt", "../core"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s: %v", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			timePkg := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
					timePkg = "time"
					if imp.Name != nil {
						timePkg = imp.Name.Name
					}
				}
			}
			if timePkg == "" {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !banned[sel.Sel.Name] {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != timePkg {
						return true
					}
					site := filepath.ToSlash(path) + ":" + fn.Name.Name
					if _, ok := sleepPollAllowed[site]; ok {
						seen[site] = true
						return true
					}
					t.Errorf("%s: time.%s in %s polls; wait on the event that ends the wait instead",
						fset.Position(sel.Pos()), sel.Sel.Name, fn.Name.Name)
					return true
				})
			}
		}
	}
	for site, why := range sleepPollAllowed {
		if !seen[site] {
			t.Errorf("allowed sleep-poll %s (%s) is gone: drop it from sleepPollAllowed", site, why)
		}
	}
}
