// Package errclass flags error-handling patterns that defeat the error
// classifier: the HTTP layer (internal/jobspec's error-class table) picks
// wire codes and status codes by probing errors with errors.Is (core.ErrInfeasible, core.ErrUnsupported,
// context deadline/cancellation), and the solver wraps classified causes
// into enriched messages (e.g. core.wrap's "%w: %v" around ErrInfeasible).
// Both halves of that contract break mechanically:
//
//  1. `err == pkg.ErrSentinel` direct comparisons are false for wrapped
//     errors. Once any layer annotates the cause with fmt.Errorf("...: %w"),
//     every direct comparison upstream silently stops matching — use
//     errors.Is. (Comparisons to nil are fine, as is io.EOF, which the
//     io.Reader contract promises arrives unwrapped.)
//  2. fmt.Errorf calls that format an error argument without a single %w
//     verb flatten the cause to text: errors.Is can no longer see through
//     the new error, so the server's classifier reports 500 where it should
//     report 422 or 504. Deliberate boundary-erasure is suppressed with
//     //lint:allow errclass <why the cause must not leak>.
//
// The pass covers the whole module: cmd/ tools sit at the top of the call
// stack, but they still branch on error identity (exit codes, retries),
// so flattened causes bite there too.
package errclass

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the errclass pass.
var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc:  "flags direct sentinel-error comparisons (use errors.Is) and fmt.Errorf calls that format an error without %w",
	Run:  run,
}

// inScope covers the whole module; fixture packages (no repro/ prefix)
// are always in scope.
func inScope(path string) bool {
	return true
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkComparison(pass, errType, n.X, n.Y, n.OpPos)
				}
			case *ast.SwitchStmt:
				checkSwitch(pass, errType, n)
			case *ast.CallExpr:
				checkErrorf(pass, errType, n)
			}
			return true
		})
	}
	return nil
}

// checkComparison flags x ==/!= y when either side names a package-level
// error sentinel.
func checkComparison(pass *analysis.Pass, errType types.Type, x, y ast.Expr, pos token.Pos) {
	for _, side := range [...]ast.Expr{x, y} {
		if v := sentinelVar(pass, errType, side); v != nil {
			pass.Reportf(pos,
				"direct comparison to sentinel %s misses wrapped errors and breaks the server's error classification; use errors.Is(err, %s)",
				v.Name(), types.ExprString(side))
			return
		}
	}
}

// checkSwitch flags `switch err { case ErrX: }`, which compares with ==.
func checkSwitch(pass *analysis.Pass, errType types.Type, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	t := pass.TypesInfo.Types[sw.Tag].Type
	if t == nil || !types.Identical(t, errType) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinelVar(pass, errType, e); v != nil {
				pass.Reportf(e.Pos(),
					"switch case compares directly to sentinel %s and misses wrapped errors; use an if/else chain with errors.Is",
					v.Name())
			}
		}
	}
}

// sentinelVar returns the package-level error variable expr refers to, or
// nil. io.EOF is exempt: the io.Reader contract returns it unwrapped.
func sentinelVar(pass *analysis.Pass, errType types.Type, expr ast.Expr) *types.Var {
	var obj types.Object
	switch e := expr.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Identical(v.Type(), errType) {
		return nil
	}
	if v.Pkg().Path() == "io" && v.Name() == "EOF" {
		return nil
	}
	return v
}

// checkErrorf flags fmt.Errorf calls whose format has no %w while one of
// the variadic arguments is an error.
func checkErrorf(pass *analysis.Pass, errType types.Type, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.Types[arg].Type
		if t == nil {
			continue
		}
		if types.Identical(t, errType) || implementsError(t, errType) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats error %s without %%w: the cause is flattened to text and errors.Is/errors.As (and the server's status mapping) can no longer see it",
				types.ExprString(arg))
			return
		}
	}
}

func implementsError(t types.Type, errType types.Type) bool {
	iface, ok := errType.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface)
}
