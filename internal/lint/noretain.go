package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// NoRetain flags goroutine-confined or pooled values escaping their
// confinement: stomp.FrameView/HeaderView (invalidated by the next
// decode), engine.Context (reset between callbacks), event.DecodeCache
// (a goroutine-confined memo table), and the pooled
// *event.Event parameter of a subscription callback literal (recycled by
// Release when the callback returns). An escape is a store to a struct
// field or package-level variable, a channel send, or a hand-off to a
// goroutine. The package defining a type is exempt — the owner manages
// its own storage.
var NoRetain = &analysis.Analyzer{
	Name:     "noretain",
	Doc:      "flag goroutine-confined or pooled values escaping their confinement",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runNoRetain,
}

// confinedTypes lists the confined types and whether value copies are as
// dangerous as pointers (true for the decoder views, whose value copies
// still alias the decoder's scratch buffer).
var confinedTypes = []struct {
	pkg, name string
	values    bool
	why       string
}{
	{stompPkg, "FrameView", true, "a FrameView is confined to its decoder's read loop and invalidated by the next decode"},
	{stompPkg, "HeaderView", true, "a HeaderView is confined to its decoder's read loop and invalidated by the next decode"},
	{enginePkg, "Context", false, "a pooled Context is reset per event and invalidated between callbacks"},
	{eventPkg, "DecodeCache", false, "a DecodeCache is a goroutine-confined memo table"},
}

func runNoRetain(pass *analysis.Pass) (interface{}, error) {
	sup := newSuppressor(pass, "noretain")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// confined describes why expr's value must not be retained, or "".
	confined := func(expr ast.Expr) string {
		t := pass.TypesInfo.TypeOf(expr)
		if t == nil {
			return ""
		}
		_, isPtr := types.Unalias(t).(*types.Pointer)
		for _, ct := range confinedTypes {
			if !isPkgType(t, ct.pkg, ct.name) {
				continue
			}
			if !isPtr && !ct.values {
				return ""
			}
			// The defining package owns the lifecycle and may store its
			// own values (the decoder embeds its reused view; the engine
			// parks its workers' Contexts).
			if n, ok := namedType(t); ok && n.Obj().Pkg() == pass.Pkg {
				return ""
			}
			return ct.why
		}
		return ""
	}

	scanEscapes(pass, sup, ins, confined)
	checkCallbackParams(pass, sup, ins)
	return nil, nil
}

// scanEscapes reports the three escape routes for any expression the
// confined predicate recognises: stores to struct fields or package-level
// variables, channel sends, and goroutine hand-offs.
func scanEscapes(pass *analysis.Pass, sup *suppressor, ins *inspector.Inspector, confined func(ast.Expr) string) {
	nodes := []ast.Node{
		(*ast.AssignStmt)(nil),
		(*ast.SendStmt)(nil),
		(*ast.GoStmt)(nil),
		(*ast.ValueSpec)(nil),
	}
	ins.Preorder(nodes, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				why := confined(rhs)
				if why == "" {
					continue
				}
				if dest := retentionDest(pass, n.Lhs[i]); dest != "" {
					sup.reportf(rhs, "confined value stored to %s: %s", dest, why)
				}
			}
		case *ast.SendStmt:
			if why := confined(n.Value); why != "" {
				sup.reportf(n.Value, "confined value sent on a channel: %s", why)
			}
		case *ast.GoStmt:
			checkGoStmt(pass, sup, n, confined)
		case *ast.ValueSpec:
			// Only package-level specs retain; locals die with the frame.
			for _, v := range n.Values {
				if why := confined(v); why != "" && isPackageLevel(pass, n) {
					sup.reportf(v, "confined value stored to a package-level variable: %s", why)
				}
			}
		}
	})
}

// retentionDest classifies an assignment destination that outlives the
// current call frame: a struct field, a package-level variable, or an
// element of a container reached through one.
func retentionDest(pass *analysis.Pass, lhs ast.Expr) string {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return "struct field " + lhs.Sel.Name
		}
		if obj := pass.TypesInfo.ObjectOf(lhs.Sel); obj != nil && isGlobalVar(obj) {
			return "package-level variable " + lhs.Sel.Name
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(lhs); obj != nil && isGlobalVar(obj) {
			return "package-level variable " + lhs.Name
		}
	case *ast.IndexExpr:
		if inner := retentionDest(pass, lhs.X); inner != "" {
			return "an element of " + inner
		}
	case *ast.StarExpr:
		if inner := retentionDest(pass, lhs.X); inner != "" {
			return inner
		}
	}
	return ""
}

func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isPackageLevel(pass *analysis.Pass, spec *ast.ValueSpec) bool {
	for _, name := range spec.Names {
		if obj := pass.TypesInfo.Defs[name]; obj != nil && isGlobalVar(obj) {
			return true
		}
	}
	return false
}

// checkGoStmt flags confined values handed to a goroutine, either as call
// arguments or captured by a function-literal closure.
func checkGoStmt(pass *analysis.Pass, sup *suppressor, g *ast.GoStmt, confined func(ast.Expr) string) {
	for _, arg := range g.Call.Args {
		if why := confined(arg); why != "" {
			sup.reportf(arg, "confined value passed to a goroutine: %s", why)
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !capturedFromOutside(obj, lit) {
			return true
		}
		if why := confined(id); why != "" {
			sup.reportf(id, "confined value captured by a go closure: %s", why)
		}
		return true
	})
}

// capturedFromOutside reports whether obj is declared outside the literal
// (a true capture rather than a parameter or local of the closure).
func capturedFromOutside(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// checkCallbackParams applies the escape checks to the pooled parameters
// of subscription callback literals: the *event.Event argument of a
// Subscribe handler is recycled by Release when the callback returns.
func checkCallbackParams(pass *analysis.Pass, sup *suppressor, ins *inspector.Inspector) {
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, recv := methodCall(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "Subscribe" || fn.Pkg() == nil {
			return
		}
		brokerRecv := pkgPathMatches(fn.Pkg().Path(), brokerPkg)
		engineRecv := pkgPathMatches(fn.Pkg().Path(), enginePkg)
		if !brokerRecv && !engineRecv {
			return
		}
		if _, ok := namedType(recv); !ok {
			return
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			pooled := pooledParams(pass, lit)
			if len(pooled) == 0 {
				continue
			}
			confined := func(expr ast.Expr) string {
				id, ok := expr.(*ast.Ident)
				if !ok {
					return ""
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if why, ok := pooled[obj]; ok {
					return why
				}
				return ""
			}
			scanLitEscapes(pass, sup, lit, confined)
		}
	})
}

// pooledParams maps a callback literal's pooled parameter objects to the
// reason they must not be retained.
func pooledParams(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]string {
	out := make(map[types.Object]string)
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			// *engine.Context params are already covered by the global
			// confined-type scan; listing them here would double-report.
			if isPtrToPkgType(obj.Type(), eventPkg, "Event") {
				out[obj] = "a delivered event is pooled and recycled by Release when the callback returns (Clone what outlives it)"
			}
		}
	}
	return out
}

// scanLitEscapes runs the escape checks over one function literal body
// with an object-scoped confinement predicate.
func scanLitEscapes(pass *analysis.Pass, sup *suppressor, lit *ast.FuncLit, confined func(ast.Expr) string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				why := confined(rhs)
				if why == "" {
					continue
				}
				if dest := retentionDest(pass, n.Lhs[i]); dest != "" {
					sup.reportf(rhs, "pooled callback value stored to %s: %s", dest, why)
				}
			}
		case *ast.SendStmt:
			if why := confined(n.Value); why != "" {
				sup.reportf(n.Value, "pooled callback value sent on a channel: %s", why)
			}
		case *ast.GoStmt:
			checkGoStmt(pass, sup, n, confined)
		}
		return true
	})
}
