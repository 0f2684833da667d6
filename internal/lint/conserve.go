package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// ConserveAnalyzer enforces two conservation pairings across the whole
// module at once:
//
//  1. Counter conservation: every numeric field of a module-defined
//     *Stats struct (SBDStats, SBBStats, frontend.Stats, btb.Stats, …)
//     that is incremented anywhere must be consumed by a registered
//     exporter — read in a value context somewhere in the module
//     (report/table assembly, a conservation check, or a test), or
//     carried on a serialized schema via a json struct tag. A counter
//     that is bumped but never read is either dead weight or, worse, a
//     result someone believes is published when it is not. Histogram
//     fields of a *Stats struct follow the same rule with Observe as
//     the increment: a histogram that accumulates samples nobody
//     renders is the same dead weight.
//
//  2. Hook pairing: every func-typed struct field named On* (OnEvict,
//     OnRemove, OnHeadPaths, …) must have at least one non-nil
//     registration site in the module, and no registration may be an
//     empty func literal. This is the bug class behind PR 4's
//     extraOffs leak: an eviction hook that exists but has no pruning
//     consumer lets per-run state grow unboundedly and silently skews
//     footprint-sensitive results.
//
// Test files count as read sites (matched by field name, since test
// packages are not type-checked): conservation tests are legitimate
// counter consumers.
var ConserveAnalyzer = &Analyzer{
	Name:       "conserve",
	Doc:        "pairs every incremented stats counter with an exporter and every On* hook with a consumer",
	RunProgram: runConserve,
}

func runConserve(pass *ProgramPass) error {
	checkCounters(pass)
	checkHooks(pass)
	return nil
}

// counterField is one tracked *Stats field.
type counterField struct {
	owner string // type name, e.g. SBDStats
	obj   *types.Var
	pos   token.Pos
	json  bool // has a json struct tag (serialized schema)
}

func checkCounters(pass *ProgramPass) {
	// Collect the counter fields of every module-defined *Stats struct.
	fields := make(map[*types.Var]*counterField)
	byName := make(map[string][]*counterField) // test-file read matching
	for _, pkg := range pass.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(name, "Stats") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !isCounterLike(f.Type()) {
					continue
				}
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				cf := &counterField{owner: name, obj: f, pos: f.Pos(), json: tag != "" && tag != "-"}
				fields[f] = cf
				byName[f.Name()] = append(byName[f.Name()], cf)
			}
		}
	}
	if len(fields) == 0 {
		return
	}

	incremented := make(map[*types.Var]bool)
	read := make(map[*types.Var]bool)
	for _, pkg := range pass.Packages {
		info := pkg.Info
		fieldOf := func(e ast.Expr) *types.Var {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			f, ok := s.Obj().(*types.Var)
			if !ok {
				return nil
			}
			if _, tracked := fields[f]; !tracked {
				return nil
			}
			return f
		}
		for _, file := range pkg.Files {
			writeTargets := make(map[ast.Expr]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.IncDecStmt:
					if f := fieldOf(st.X); f != nil {
						incremented[f] = true
						writeTargets[st.X] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if f := fieldOf(lhs); f != nil {
							writeTargets[lhs] = true
							if st.Tok == token.ADD_ASSIGN {
								incremented[f] = true
							}
						}
					}
				case *ast.CallExpr:
					// h.Observe(v) on a tracked Histogram field is its
					// increment form, not a read.
					if sel, ok := st.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" {
						if f := fieldOf(sel.X); f != nil && isHistogram(f.Type()) {
							incremented[f] = true
							writeTargets[sel.X] = true
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !writeTargets[sel] {
					if f := fieldOf(sel); f != nil {
						read[f] = true
					}
				}
				return true
			})
		}
		// Test files are parsed without type information; a selector
		// with a tracked field's name is accepted as a read. The
		// conservation tests living in _test.go files are exactly the
		// consumers this check wants to credit.
		for _, file := range pkg.TestFiles {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					for _, cf := range byName[sel.Sel.Name] {
						read[cf.obj] = true
					}
				}
				return true
			})
		}
	}

	var out []*counterField
	for f, cf := range fields {
		if incremented[f] && !read[f] && !cf.json {
			out = append(out, cf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, cf := range out {
		pass.Reportf(cf.pos, "counter %s.%s is incremented but never read by a report, table, test, or json schema: export it or delete it", cf.owner, cf.obj.Name())
	}
}

// isCounterLike reports whether a *Stats field participates in counter
// conservation: numeric basics (classic counters/gauges) and Histogram
// fields, whose Observe calls are their increments.
func isCounterLike(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsNumeric != 0
	}
	return isHistogram(t)
}

// isHistogram matches named Histogram types (stats.Histogram, or a
// fixture-local equivalent) by name: the analyzer cares about the
// Observe-accumulates/render-consumes shape, not the concrete package.
func isHistogram(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Histogram"
}

// hookField is one On* func-typed struct field.
type hookField struct {
	owner string
	obj   *types.Var
	pos   token.Pos
}

func checkHooks(pass *ProgramPass) {
	hooks := make(map[*types.Var]*hookField)
	for _, pkg := range pass.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !strings.HasPrefix(f.Name(), "On") || len(f.Name()) < 3 {
					continue
				}
				if _, ok := f.Type().Underlying().(*types.Signature); !ok {
					continue
				}
				hooks[f] = &hookField{owner: name, obj: f, pos: f.Pos()}
			}
		}
	}
	if len(hooks) == 0 {
		return
	}

	registered := make(map[*types.Var]bool)
	for _, pkg := range pass.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.AssignStmt)
				if !ok || st.Tok != token.ASSIGN {
					return true
				}
				for i, lhs := range st.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(st.Rhs) {
						continue
					}
					s := info.Selections[sel]
					if s == nil || s.Kind() != types.FieldVal {
						continue
					}
					f, ok := s.Obj().(*types.Var)
					if !ok {
						continue
					}
					if _, tracked := hooks[f]; !tracked {
						continue
					}
					rhs := st.Rhs[i]
					if id, ok := rhs.(*ast.Ident); ok && id.Name == "nil" {
						continue // detachment, not registration
					}
					if lit, ok := rhs.(*ast.FuncLit); ok && len(lit.Body.List) == 0 {
						pass.Reportf(rhs.Pos(), "hook %s.%s is registered with an empty func literal: the hook's events are dropped; wire a consumer or assign nil", hooks[f].owner, f.Name())
						continue
					}
					registered[f] = true
				}
				return true
			})
		}
	}

	var out []*hookField
	for f, hf := range hooks {
		if !registered[f] {
			out = append(out, hf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, hf := range out {
		pass.Reportf(hf.pos, "hook %s.%s is declared but never registered with a non-nil consumer anywhere in the module: its events (evictions, removals, …) are unobserved, the hook-pairing leak class", hf.owner, hf.obj.Name())
	}
}
