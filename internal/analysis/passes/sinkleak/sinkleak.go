// Package sinkleak flags subscription handles that are acquired but can
// never be released.
//
// Every subscription surface in StreamWorks hands back a resource the
// caller must release: core.Engine.Subscribe returns a cancel func,
// streamworks.Engine.Subscribe returns a Subscription value with Close. A
// subscription that is never closed pins
// a sink in the dispatch registry for the engine's lifetime — every future
// match is delivered to it, buffers grow, and in the server the associated
// goroutine never exits (the goleak TestMains catch that dynamically; this
// analyzer catches it at review time).
//
// The rule is an existence check per function: a value obtained from a
// call to a function or method named Subscribe (or of a type whose
// declaration carries //swvet:sink, or listed in SinkTypes) must either be
// released somewhere in the same function — a call of the value itself for
// cancel funcs, or of its Close/Unsubscribe/Cancel/Stop method, including
// in defers and nested function literals — or escape the function
// (returned, stored in a field/global/container, passed to another
// function), which transfers the release obligation to the holder.
// Discarding the handle with _ is always a leak. Suppress with
// //swvet:ignore sinkleak -- <why>.
package sinkleak

import (
	"go/ast"
	"go/types"

	"github.com/streamworks/streamworks/internal/analysis"
)

// SinkTypes are fully-qualified type names whose values are subscription
// handles regardless of how they were obtained.
var SinkTypes = map[string]bool{
	"github.com/streamworks/streamworks.Subscription": true,
}

// releaseMethods are the method names that count as releasing a handle.
var releaseMethods = map[string]bool{
	"Close":       true,
	"Unsubscribe": true,
	"Cancel":      true,
	"Stop":        true,
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "sinkleak",
	Doc: "subscription handles (Subscribe results, //swvet:sink types) that are " +
		"neither closed/cancelled nor handed off — sink registry and goroutine leaks",
	Run: run,
}

func run(pass *analysis.Pass) error {
	sinkDirTypes := localSinkTypes(pass)
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, sinkDirTypes, fd)
		}
	}
	return nil
}

// localSinkTypes collects named types in this package declared with a
// //swvet:sink doc directive.
func localSinkTypes(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if analysis.HasDirective(gd.Doc, "sink") || analysis.HasDirective(ts.Doc, "sink") {
					if obj := pass.ObjectOf(ts.Name); obj != nil {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}

// acquisition is one tracked subscription handle in a function.
type acquisition struct {
	obj     types.Object
	pos     ast.Node
	what    string
	blanked bool // assigned to _, an unconditional leak
}

func checkFunc(pass *analysis.Pass, sinkDirTypes map[types.Object]bool, fd *ast.FuncDecl) {
	var acqs []*acquisition

	isSinkType := func(t types.Type) bool {
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		if sinkDirTypes[obj] {
			return true
		}
		if obj.Pkg() == nil {
			return false
		}
		return SinkTypes[obj.Pkg().Path()+"."+obj.Name()]
	}

	// Pass 1: find acquisitions — results of Subscribe calls and values of
	// sink-marked types bound by assignment.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fromSubscribe := false
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Subscribe" {
			fromSubscribe = true
		} else if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Subscribe" {
			fromSubscribe = true
		}
		// The handle is the first result by convention ((Subscription, error)
		// or a bare cancel func).
		lhs := as.Lhs[0]
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return true
		}
		handleType := pass.TypeOf(lhs)
		if !fromSubscribe && (handleType == nil || !isSinkType(handleType)) {
			return true
		}
		if id.Name == "_" {
			acqs = append(acqs, &acquisition{pos: as, what: describe(call), blanked: true})
			return true
		}
		if obj := pass.ObjectOf(id); obj != nil {
			acqs = append(acqs, &acquisition{obj: obj, pos: as, what: describe(call)})
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	// Pass 2: for each tracked object, look for a release or an escape.
	for _, acq := range acqs {
		if acq.blanked {
			pass.Reportf(acq.pos.Pos(), "subscription from %s is discarded with _: it can never be closed and leaks its sink registration", acq.what)
			continue
		}
		if releasedOrEscapes(pass, fd.Body, acq.obj) {
			continue
		}
		pass.Reportf(acq.pos.Pos(), "subscription %s from %s is never closed/cancelled and never leaves this function; every future match still fans out to it (call Close, or defer it)", acq.obj.Name(), acq.what)
	}
}

func describe(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "Subscribe"
}

// releasedOrEscapes scans the whole function body (defers and nested
// function literals included) for a release call on obj or any use that
// hands obj to other code.
func releasedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// sub.Close() / cancel()
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					if releaseMethods[fun.Sel.Name] {
						found = true
						return false
					}
					// Other method calls on the handle (sub.Done()) are uses,
					// not escapes.
					return true
				}
			case *ast.Ident:
				if pass.ObjectOf(fun) == obj {
					found = true // cancel func invoked
					return false
				}
			}
			// Handle passed as an argument: obligation transfers.
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			// Stored anywhere (field, map, outer variable, …): obligation
			// transfers to the holder. Any assignment with obj on the RHS
			// counts.
			for _, r := range n.Rhs {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if id, ok := ast.Unparen(el).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
