package obs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// hotPathPackages are the internal packages where stream time
// (graph.Timestamp on edges and watermarks) is the only clock: a wall-clock
// read there makes window expiry, and so the match set, depend on scheduling
// and replay speed.
var hotPathPackages = []string{"core", "sjtree", "match", "graph", "isomorphism", "mqo"}

// wallClockFuncs are the time functions that read or schedule by the wall
// clock. Durations and constants stay legal: retention and slack are
// durations applied to stream timestamps.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Tick": true, "Sleep": true, "NewTimer": true, "NewTicker": true,
}

// wallClockUses lists every wall-clock selector in one parsed file — a
// wallClockFuncs function of package time, or this package's SystemClock —
// under whatever name the file imports either package.
func wallClockUses(fset *token.FileSet, f *ast.File) []string {
	imported := map[string]string{} // local name → "time" or "obs"
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		var pkg string
		switch path {
		case "time":
			pkg = "time"
		case "github.com/streamworks/streamworks/internal/obs":
			pkg = "obs"
		default:
			continue
		}
		name := pkg
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = pkg
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg := imported[id.Name]; pkg == "time" && wallClockFuncs[sel.Sel.Name] || pkg == "obs" && sel.Sel.Name == "SystemClock" {
			found = append(found, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), id.Name, sel.Sel.Name))
		}
		return true
	})
	return found
}

// TestHotPathReadsNoWallClock: the hot-path packages read wall time only
// through the obs.Clock handed to them in configuration, so the embedder and
// every test control what it reports. It parses the packages' non-test files
// without type-checking them.
func TestHotPathReadsNoWallClock(t *testing.T) {
	t.Run("detects", func(t *testing.T) {
		const src = `package p

import (
	stdtime "time"

	o "github.com/streamworks/streamworks/internal/obs"
)

const retention = stdtime.Minute

func f(c o.Clock) { _ = stdtime.Now(); _ = o.SystemClock; stdtime.Sleep(retention) }
`
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if got := wallClockUses(fset, f); len(got) != 3 {
			t.Fatalf("want stdtime.Now, o.SystemClock and stdtime.Sleep, got %q", got)
		}
	})
	for _, pkg := range hotPathPackages {
		t.Run(pkg, func(t *testing.T) {
			dir := filepath.Join("..", pkg)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			files := 0
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files++
				for _, use := range wallClockUses(fset, f) {
					t.Errorf("%s: hot-path code reads the wall clock; take the obs.Clock from configuration", use)
				}
			}
			if files == 0 {
				t.Fatalf("no Go files in %s", dir)
			}
		})
	}
}
