package tetris_test

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names the non-test functions and types no program reaches
// that stay anyway: test seams and observers other packages' tests read.
// Keys are "pkg.Func", "pkg.Type" or "pkg.Type.Method" with pkg the path
// below the module; the value says why.
var reachAllowed = map[string]string{
	"internal/testutil.WaitFor":         "polling helper shared by the tests of several packages",
	"internal/rm.Sharded.SubmitJobAs":   "submits as a tenant, for admission tests",
	"internal/rm.Sharded.LiveNodes":     "observer the rm, nm and hollow tests poll",
	"internal/rm.Sharded.ResyncPending": "observer the restart tests poll",
	"internal/rm.admission.queuedJobs":  "observer the admission tests read",
	"internal/rm.admission.backlog":     "observer the admission tests read",
}

// listedPackage is the part of `go list -json` the reachability pass reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// TestEveryDeclarationHasACaller fails when a non-test function, method or
// type of the module is reached neither from a main package nor from the
// root package's exports. It type-checks the module's non-test files,
// follows every reference out of each main and init function, every
// package-level variable initializer and the exported API of the tetris
// facade (the exported methods and fields of every type it names,
// transitively), and sends each call of an interface method to the
// matching methods of every reached type that implements the interface.
// Methods matching a standard-library interface are assumed called by
// the standard library.
func TestEveryDeclarationHasACaller(t *testing.T) {
	m := loadModule(t)
	r := newReach()
	var decls []declared
	for _, p := range m.pkgs {
		r.module[p.pkg] = true
		decls = append(decls, r.addPackage(p.pkg, p.rel, p.files, p.info)...)
	}
	for path := range m.exports {
		if p, err := m.std.Import(path); err == nil {
			r.addStdInterfaces(p)
		}
	}
	if root := m.root; root != nil {
		r.addFacade(root)
	}
	r.run()

	var unreached []string
	for _, d := range decls {
		if r.reached[d.obj] {
			continue
		}
		if _, ok := reachAllowed[d.name]; ok {
			continue
		}
		unreached = append(unreached, d.name+" ("+m.fset.Position(d.obj.Pos()).String()+")")
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d non-test declarations reached from no main package and no tetris export; delete them or, for a test seam, add them to reachAllowed with a reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	for name := range reachAllowed {
		if o, ok := r.named[name]; !ok {
			t.Errorf("reachAllowed names %s, which is not declared", name)
		} else if r.reached[o] {
			t.Errorf("reachAllowed names %s, which a program reaches; take it off the list", name)
		}
	}
}

// optionAllowed names the options no non-test file outside their own
// package sets that stay anyway, because tests set them. Keys are
// "pkg.Type.Field" with pkg the path below the module; the value says why.
var optionAllowed = map[string]string{
	"internal/sim.Config.CheckInvariants":         "turns on the oracle checks",
	"internal/trace.Config.MeanTaskSeconds":       "tests shorten generated tasks",
	"internal/rm.AdmissionConfig.RetryAfter":      "the admission chaos suite shortens the hint to 10 ms",
	"internal/nm.Config.MaxReconnects":            "the restart chaos suite raises the budget",
	"internal/am.Config.MaxReconnects":            "the restart chaos suite raises the budget",
	"internal/nm.Config.Heartbeat":                "tests beat every 10-20 ms",
	"internal/am.Config.Poll":                     "tests poll every 10 ms",
	"internal/hollow.Config.Capacity":             "the dialect test gives hollow nodes the real NM's capacity",
	"internal/hollow.StormConfig.Duration":        "the storm tests bound a storm by time instead of by its context",
	"internal/faults.PlanConfig.SlowdownFraction": "machine slowdowns are a documented FaultPlan kind",
	"internal/faults.PlanConfig.SlowdownFactor":   "machine slowdowns are a documented FaultPlan kind",
	"internal/faults.PlanConfig.MeanSlowdown":     "machine slowdowns are a documented FaultPlan kind",
}

// TestEveryOptionHasASetter fails when an exported field of an option
// struct is set by no non-test file outside the type's own package: an
// option no program sets is a constant. The option structs are the struct
// types named Config, ...Config or Options, and every struct type of the
// same package one of their fields holds, directly, by pointer, or as a
// slice, array or map element. A set is a composite-literal key, an
// assignment or taking the field's address (a flag bound to it); fields
// resolve through go/types, so a set through a facade alias counts.
func TestEveryOptionHasASetter(t *testing.T) {
	m := loadModule(t)
	set := map[types.Object]bool{}
	for _, p := range m.pkgs {
		note := func(id *ast.Ident) {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
				set[v] = true
			}
		}
		noteSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				note(sel.Sel)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						note(id)
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						noteSel(l)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						noteSel(n.X)
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	var unset []string
	for _, p := range m.pkgs {
		scope := p.pkg.Scope()
		var queue []*types.TypeName
		seen := map[*types.TypeName]bool{}
		// hold queues typ's named struct type when it is declared in p,
		// looking through pointers, slices, arrays and map values.
		hold := func(typ types.Type) {
			for {
				e, ok := typ.(interface{ Elem() types.Type })
				if !ok {
					break
				}
				typ = e.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok || named.Obj().Pkg() != p.pkg || seen[named.Obj()] {
				return
			}
			if _, ok := named.Underlying().(*types.Struct); ok {
				seen[named.Obj()] = true
				queue = append(queue, named.Obj())
			}
		}
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() && (name == "Options" || strings.HasSuffix(name, "Config")) {
				hold(tn.Type())
			}
		}
		for len(queue) > 0 {
			tn := queue[0]
			queue = queue[1:]
			name := tn.Name()
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				hold(f.Type())
				key := p.rel + "." + name + "." + f.Name()
				declared[key] = true
				if set[f] {
					if _, ok := optionAllowed[key]; ok {
						t.Errorf("optionAllowed names %s, which a program sets; take it off the list", key)
					}
					continue
				}
				if _, ok := optionAllowed[key]; !ok {
					unset = append(unset, key+" ("+m.fset.Position(f.Pos()).String()+")")
				}
			}
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d options set by no non-test file outside their package; replace each with the value it resolves to or, for one tests set, add it to optionAllowed with a reason:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
	for key := range optionAllowed {
		if !declared[key] {
			t.Errorf("optionAllowed names %s, which is not an option", key)
		}
	}
}

// fieldAllowed names the struct fields no non-test code reads that stay
// anyway. Keys are "pkg.Type.Field" with pkg the path below the module;
// the value says why.
var fieldAllowed = map[string]string{
	"internal/am.Result.FinishedAt":       "the am tests read it",
	"benchmark.workloadDef.why":           "the benchmark's test holds it equal to BENCHMARK.json",
	"internal/wire.Message.ClusterStatus": "the status reply; no shipped client sends the query",
}

// TestEveryFieldIsRead fails when a field of a package-level struct type
// is read by no non-test code: a fact carried but never read. A read is
// a selector naming the field anywhere but as the target of an
// assignment, an op-assign or ++/--; a composite-literal key is a write.
// Two places encode every field, so their reads do not count: the RM's
// state codec (internal/rm/codec.go), and internal/wire for the fields
// of its JSON message types. Exempt are json-tagged fields outside
// internal/wire, which are served as JSON, and the exported fields of
// every type the tetris facade names.
func TestEveryFieldIsRead(t *testing.T) {
	m := loadModule(t)
	r := newReach()
	for _, p := range m.pkgs {
		r.module[p.pkg] = true
	}
	r.addFacade(m.root)
	facade := map[*types.Var]bool{}
	for typ := range r.apiSeen {
		if st, ok := typ.(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					facade[f] = true
				}
			}
		}
	}

	// The fields of every struct type, and which of them wire's
	// encoders read.
	type field struct {
		key string
		obj *types.Var
	}
	var fields []field
	wireMessage := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			jsonType := false
			for i := 0; i < st.NumFields(); i++ {
				jsonType = jsonType || strings.Contains(st.Tag(i), `json:"`)
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case f.Embedded() || f.Name() == "_" || facade[f]:
				case p.rel == "internal/wire" && jsonType:
					wireMessage[f] = true
					fields = append(fields, field{p.rel + "." + name + "." + f.Name(), f})
				case !strings.Contains(st.Tag(i), `json:"`):
					fields = append(fields, field{p.rel + "." + name + "." + f.Name(), f})
				}
			}
		}
	}

	read := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			if p.rel == "internal/rm" && filepath.Base(m.fset.File(f.Pos()).Name()) == "codec.go" {
				continue
			}
			written := map[*ast.Ident]bool{}
			target := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					written[sel.Sel] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						target(l)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.SelectorExpr:
					v, ok := p.info.Uses[n.Sel].(*types.Var)
					if ok && v.IsField() && !written[n.Sel] && !(p.rel == "internal/wire" && wireMessage[v.Origin()]) {
						read[v.Origin()] = true
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	var unread []string
	for _, f := range fields {
		declared[f.key] = true
		_, allowed := fieldAllowed[f.key]
		switch {
		case read[f.obj] && allowed:
			t.Errorf("fieldAllowed names %s, which non-test code reads; take it off the list", f.key)
		case !read[f.obj] && !allowed:
			unread = append(unread, f.key+" ("+m.fset.Position(f.obj.Pos()).String()+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d fields read by no non-test code; delete each or, for one tests read, add it to fieldAllowed with a reason:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
	for key := range fieldAllowed {
		if !declared[key] {
			t.Errorf("fieldAllowed names %s, which is not a field the test holds to account", key)
		}
	}
}

// TestEveryParameterIsRead fails when a named parameter of a non-test
// function, method or function literal outside benchmark/ is never read
// in its body: an argument every caller computes and the callee drops.
// A read is any use but as the target of a plain assignment. A
// parameter that a function type forces on the signature (an
// interface method, a callback) is named _.
func TestEveryParameterIsRead(t *testing.T) {
	m := loadModule(t)
	var unread []string
	for _, p := range m.pkgs {
		if p.rel == "benchmark" || strings.HasPrefix(p.rel, "benchmark/") {
			continue
		}
		read := map[types.Object]bool{}
		for _, f := range p.files {
			written := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, l := range n.Lhs {
							if id, ok := ast.Unparen(l).(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				case *ast.Ident:
					if o := p.info.Uses[n]; o != nil && !written[n] {
						read[o] = true
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var typ *ast.FuncType
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return true
					}
					typ = n.Type
				case *ast.FuncLit:
					typ = n.Type
				default:
					return true
				}
				for _, field := range typ.Params.List {
					for _, id := range field.Names {
						if id.Name != "_" && !read[p.info.Defs[id]] {
							unread = append(unread, p.rel+": "+id.Name+" ("+m.fset.Position(id.Pos()).String()+")")
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d parameters read nowhere in their function; drop each from the signature and its callers or, where a function type forces it, name it _:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// module is the module's non-test code, type-checked from
// `go list -export -deps` with go/types.
type module struct {
	fset    *token.FileSet
	std     types.Importer
	exports map[string]string // import path -> export data of each dependency outside the module
	pkgs    []checkedPackage  // dependencies first
	root    *types.Package    // the tetris facade
}

type checkedPackage struct {
	rel   string // import path below the module
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func loadModule(t *testing.T) *module {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export", "./...").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	modPath := modulePath(t)
	var listed []*listedPackage
	m := &module{fset: token.NewFileSet(), exports: map[string]string{}}
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.ImportPath == modPath || strings.HasPrefix(p.ImportPath, modPath+"/") {
			listed = append(listed, p) // go list -deps orders dependencies first
		} else {
			m.exports[p.ImportPath] = p.Export
		}
	}

	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(m.exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return m.std.Import(path)
	})
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, m.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		m.pkgs = append(m.pkgs, checkedPackage{rel, pkg, files, info})
	}
	m.root = checked[modPath]
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func modulePath(t *testing.T) string {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// declared is one package-level function, method or type, named the way
// reachAllowed keys it.
type declared struct {
	name string
	obj  types.Object
}

type reach struct {
	module  map[*types.Package]bool
	edges   map[types.Object][]types.Object // declaration -> objects its body or type uses
	reached map[types.Object]bool
	named   map[string]types.Object
	work    []types.Object
	// Interface methods called somewhere, and the named module types
	// reached so far; each pair that matches reaches the concrete method.
	calledIface []*types.Func
	types       []*types.Named
	apiSeen     map[types.Type]bool
}

func newReach() *reach {
	return &reach{
		module:  map[*types.Package]bool{},
		edges:   map[types.Object][]types.Object{},
		reached: map[types.Object]bool{},
		named:   map[string]types.Object{},
		apiSeen: map[types.Type]bool{},
	}
}

// addPackage records the edges out of every top-level declaration of a
// checked package and marks its roots: main and init functions and
// package-level variable initializers. It returns the declarations the
// test holds to account.
func (r *reach) addPackage(pkg *types.Package, rel string, files []*ast.File, info *types.Info) []declared {
	uses := func(n ast.Node) []types.Object {
		var objs []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					objs = append(objs, origin(o))
				}
			}
			return true
		})
		return objs
	}
	var out []declared
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if obj == nil {
					continue
				}
				r.edges[obj] = uses(d)
				name := rel + "." + d.Name.Name
				if d.Recv != nil {
					name = rel + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && pkg.Name() == "main")) {
					r.mark(obj)
					continue
				}
				r.named[name] = obj
				out = append(out, declared{name, obj})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						if obj == nil || s.Name.Name == "_" {
							continue
						}
						r.edges[obj] = uses(s)
						name := rel + "." + s.Name.Name
						r.named[name] = obj
						out = append(out, declared{name, obj})
					case *ast.ValueSpec:
						for _, o := range uses(s) {
							r.mark(o)
						}
					}
				}
			}
		}
	}
	return out
}

// addStdInterfaces treats every method of every interface a
// standard-library package declares as called: the library may call it
// on any value handed to it.
func (r *reach) addStdInterfaces(p *types.Package) {
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					r.calledIface = append(r.calledIface, it.Method(i))
				}
			}
		}
	}
}

// addFacade marks the root package's exports and, transitively, the
// exported methods and fields of every module type its API names.
func (r *reach) addFacade(root *types.Package) {
	for _, name := range root.Scope().Names() {
		o := root.Scope().Lookup(name)
		if !o.Exported() {
			continue
		}
		r.mark(o)
		r.api(o.Type())
	}
}

func (r *reach) api(t types.Type) {
	if t == nil || r.apiSeen[t] {
		return
	}
	r.apiSeen[t] = true
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if !r.module[t.Obj().Pkg()] {
			return
		}
		r.mark(t.Obj())
		for _, rt := range []types.Type{t, types.NewPointer(t)} {
			ms := types.NewMethodSet(rt)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					r.mark(origin(m))
					r.api(m.Type())
				}
			}
		}
		r.api(t.Underlying())
	case *types.Pointer:
		r.api(t.Elem())
	case *types.Slice:
		r.api(t.Elem())
	case *types.Array:
		r.api(t.Elem())
	case *types.Map:
		r.api(t.Key())
		r.api(t.Elem())
	case *types.Chan:
		r.api(t.Elem())
	case *types.Signature:
		r.api(t.Params())
		r.api(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.api(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				r.api(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			r.mark(t.Method(i))
			r.api(t.Method(i).Type())
		}
	}
}

func (r *reach) mark(o types.Object) {
	if o == nil || r.reached[o] {
		return
	}
	r.reached[o] = true
	r.work = append(r.work, o)
}

// run drains the worklist, dispatching interface calls to the methods
// of reached types until neither set grows.
func (r *reach) run() {
	for len(r.work) > 0 {
		for len(r.work) > 0 {
			o := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			for _, u := range r.edges[o] {
				r.mark(u)
			}
			switch o := o.(type) {
			case *types.Func:
				if isIfaceMethod(o) {
					r.calledIface = append(r.calledIface, o)
				}
			case *types.TypeName:
				if n, ok := o.Type().(*types.Named); ok && r.module[o.Pkg()] {
					r.types = append(r.types, n)
				}
			}
		}
		for _, n := range r.types {
			for _, rt := range []types.Type{n, types.NewPointer(n)} {
				ms := types.NewMethodSet(rt)
				for i := 0; i < ms.Len(); i++ {
					m := ms.At(i).Obj().(*types.Func)
					if r.reached[origin(m)] {
						continue
					}
					for _, im := range r.calledIface {
						if im.Name() != m.Name() {
							continue
						}
						it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
						if types.Implements(rt, it) || types.Implements(types.NewPointer(n), it) {
							r.mark(origin(m))
							break
						}
					}
				}
			}
		}
	}
}

func isIfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(o types.Object) types.Object {
	if f, ok := o.(*types.Func); ok {
		return f.Origin()
	}
	return o
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
