// Package maporder flags map iteration whose per-iteration effects are
// order-dependent, inside the packages whose output must be canonical.
//
// StreamWorks' acceptance bar is exact match-set equality: signatures,
// projection keys, plan summaries, wire encodings and golden files are
// compared byte-for-byte across backends, strategies and replays. Go map
// iteration order is deliberately randomized, so a bare `for k := range m`
// that appends to a slice, writes to an encoder or returns early produces
// run-dependent bytes. In the deterministic packages (match, sjtree,
// export, query, decompose, api, loader, gen, wire, wal — a log record that
// encoded differently from run to run would break the byte-prefix recovery
// tests) the analyzer requires one of:
//
//   - commutative loop bodies: every statement is an order-independent
//     accumulation (map/set writes, delete, numeric += / counters, local
//     temporaries), which is how map→map transforms stay legal;
//   - a sort after the loop: a call to sort.* or slices.Sort* later in the
//     same function is taken as evidence the collected results are
//     canonicalized before they escape;
//   - an explicit allowlist: //swvet:unordered <why> on the range statement
//     or the enclosing function's doc comment, for loops whose
//     order-dependence is provably harmless (e.g. max/min folds).
//
// Fixture packages opt into scope with a file-level //swvet:deterministic
// comment.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/streamworks/streamworks/internal/analysis"
)

// DeterministicPackages are the import paths (and subpackages) whose
// results feed match signatures, plan summaries, wire encoding, log records
// or golden files.
var DeterministicPackages = []string{
	"github.com/streamworks/streamworks/internal/match",
	"github.com/streamworks/streamworks/internal/sjtree",
	"github.com/streamworks/streamworks/internal/export",
	"github.com/streamworks/streamworks/internal/query",
	"github.com/streamworks/streamworks/internal/decompose",
	"github.com/streamworks/streamworks/internal/api",
	"github.com/streamworks/streamworks/internal/loader",
	"github.com/streamworks/streamworks/internal/gen",
	"github.com/streamworks/streamworks/internal/wire",
	"github.com/streamworks/streamworks/internal/wal",
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "order-dependent iteration over maps in packages that feed signatures, " +
		"wire output or golden files, without an intervening sort",
	Run: run,
}

func inScope(pass *analysis.Pass, f *ast.File) bool {
	for _, p := range DeterministicPackages {
		if pass.Path() == p || strings.HasPrefix(pass.Path(), p+"/") {
			return true
		}
	}
	return pass.FileHasDirective(f, "deterministic")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files() {
		if !inScope(pass, f) {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

// checkFile reports every order-dependent map iteration in one file: a range
// over a map whose body is neither commutative nor followed by a
// canonicalizing sort in the same function, and that carries no
// //swvet:unordered allowance.
func checkFile(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		funcAllowed := analysis.HasDirective(fd.Doc, "unordered")
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := pass.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if funcAllowed || pass.Allowed(rng.Pos(), "unordered") {
				return true
			}
			if sortedAfter(pass, fd.Body, rng.End()) {
				return true
			}
			c := &checker{pass: pass, locals: map[types.Object]bool{}}
			c.noteLoopVars(rng)
			if reason := c.commutative(rng.Body); reason != "" {
				pass.Reportf(rng.Pos(), "map iteration order reaches deterministic output (%s); sort the collected results or annotate //swvet:unordered <why>", reason)
				return false // one report per loop; nested ranges are covered by it
			}
			return true
		})
	}
}

// sortedAfter reports whether a canonicalizing sort call appears after pos
// in the function body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.ObjectOf(sel.Sel).(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort":
			found = true
		case "slices":
			if strings.HasPrefix(obj.Name(), "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

// checker decides whether a loop body's effects are order-independent.
type checker struct {
	pass *analysis.Pass
	// locals are objects declared inside the loop (including the range
	// variables): assignments to them die with the iteration.
	locals map[types.Object]bool
}

func (c *checker) noteLoopVars(rng *ast.RangeStmt) {
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := c.pass.ObjectOf(id); obj != nil {
				c.locals[obj] = true
			}
		}
	}
}

// commutative returns "" when every statement in the block is
// order-independent, else a short description of the first offending
// statement.
func (c *checker) commutative(block *ast.BlockStmt) string {
	for _, st := range block.List {
		if reason := c.stmt(st); reason != "" {
			return reason
		}
	}
	return ""
}

func (c *checker) stmt(st ast.Stmt) string {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return c.assign(st)
	case *ast.IncDecStmt:
		return "" // counters commute
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						if obj := c.pass.ObjectOf(id); obj != nil {
							c.locals[obj] = true
						}
					}
				}
			}
		}
		return ""
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") {
				return ""
			}
		}
		return "calls a function with unknown ordering effects"
	case *ast.IfStmt:
		if st.Init != nil {
			if reason := c.stmt(st.Init); reason != "" {
				return reason
			}
		}
		if reason := c.commutative(st.Body); reason != "" {
			return reason
		}
		if st.Else != nil {
			if reason := c.stmt(st.Else); reason != "" {
				return reason
			}
		}
		return ""
	case *ast.BlockStmt:
		return c.commutative(st)
	case *ast.RangeStmt:
		c.noteLoopVars(st)
		return c.commutative(st.Body)
	case *ast.ForStmt:
		if st.Init != nil {
			if reason := c.stmt(st.Init); reason != "" {
				return reason
			}
		}
		return c.commutative(st.Body)
	case *ast.SwitchStmt:
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, s := range cc.Body {
					if reason := c.stmt(s); reason != "" {
						return reason
					}
				}
			}
		}
		return ""
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE {
			return ""
		}
		return "exits the loop early (iteration order decides which key wins)"
	case *ast.ReturnStmt:
		return "returns from inside the loop (iteration order decides which key wins)"
	default:
		// Sends, go/defer, selects, … — anything we cannot prove commutes.
		return "has per-iteration effects the analyzer cannot prove order-independent"
	}
}

// assign allows map/set writes, writes to loop-local temporaries, and
// numeric accumulation; everything else (notably append and plain writes to
// outer variables) is order-dependent.
func (c *checker) assign(st *ast.AssignStmt) string {
	if st.Tok == token.DEFINE {
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.ObjectOf(id); obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return ""
	}
	for _, lhs := range st.Lhs {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" || c.locals[c.pass.ObjectOf(lhs)] {
				continue
			}
			if c.accumulating(st, lhs) {
				continue
			}
			return "assigns to a variable outside the loop (last iteration wins)"
		case *ast.IndexExpr:
			if _, isMap := c.pass.TypeOf(lhs.X).Underlying().(*types.Map); isMap {
				continue // keyed map write: order-independent for distinct keys
			}
			if c.accumulating(st, lhs) {
				continue
			}
			return "writes through an index whose final value depends on order"
		default:
			return "assigns outside the loop (last iteration wins)"
		}
	}
	return ""
}

// accumulating reports whether the assignment is a commutative numeric
// accumulation (+=, *=, |=, &=, ^=, -=) on an integer, float or complex
// target.
func (c *checker) accumulating(st *ast.AssignStmt, lhs ast.Expr) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	t := c.pass.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric) != 0
}
