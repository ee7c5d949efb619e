// Package memoalias flags memoized values escaping a memo without a
// defensive copy — the exact bug class fixed twice already (PR 2: callers
// could mutate results memoized by the batch cache; the plan layer then
// re-introduced the same hazard and clones on both hit paths).
//
// The invariant: internal/memo is the repository's one single-flight memo,
// and the value it hands out — the first result of (*memo.Entry).Wait — is
// shared by every caller of its key. When that value's type reaches a
// slice, map or pointer, letting it escape raw hands every caller a handle
// into the memo: one append or element write corrupts the cached value for
// all later hits. Every such read must pass straight into a clone function
// (any callee whose name contains "clone") within the same statement;
// deliberate sharing of immutable state is suppressed with
// //lint:allow memoalias <why the shared value cannot be mutated>.
package memoalias

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// memoPath is the import path of the memo primitive the pass guards.
const memoPath = "repro/internal/memo"

// Analyzer is the memoalias pass.
var Analyzer = &analysis.Analyzer{
	Name: "memoalias",
	Doc:  "flags aliasable values read out of internal/memo entries without passing through a clone function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !memoRead(pass.TypesInfo, call) {
			return true
		}
		results, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok || results.Len() == 0 {
			return true
		}
		v := results.At(0).Type()
		if !aliasable(v) || underClone(call, stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"memoized %s read by Wait escapes the memo without a clone: callers can mutate the cached value for every later hit; route it through the clone path (or //lint:allow memoalias <why it is immutable>)",
			types.TypeString(v, nil))
		return true
	})
	return nil
}

// memoRead reports whether call reads a memoized value: a call of Wait on
// a type declared in internal/memo.
func memoRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	fn := s.Obj()
	return fn.Pkg() != nil && fn.Pkg().Path() == memoPath && fn.Name() == "Wait"
}

// aliasable reports whether a value of type t shares mutable state with
// its source: it is, or structurally contains, a slice, map or pointer.
// Interfaces and channels are excluded — error values are memoized by
// design.
func aliasable(t types.Type) bool {
	return aliasableSeen(t, map[types.Type]bool{})
}

func aliasableSeen(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	case *types.Array:
		return aliasableSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasableSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// underClone reports whether expr is (transitively, within the same
// statement) an argument of a call to a clone-like function — a callee
// whose name contains "clone" in any case.
func underClone(expr ast.Expr, stack []ast.Node) bool {
	child := ast.Node(expr)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == child {
					if name := calleeName(p); strings.Contains(strings.ToLower(name), "clone") {
						return true
					}
				}
			}
		case ast.Stmt:
			return false
		}
		child = stack[i]
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
