package minijs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ErrBudget is returned when a script exceeds its step budget. The crawler
// treats a budget hit as "script did not terminate" — exactly how a real
// honeyclient bounds adversarial ads.
var ErrBudget = errors.New("minijs: step budget exhausted")

// maxArrayLen bounds dense array growth and Array(n) allocation. The step
// budget bounds how many statements run, but a single a[1e9] = 1 would
// allocate gigabytes in one step; past this bound the interpreter throws a
// catchable RangeError instead.
const maxArrayLen = 1 << 20

// maxStringLen bounds string concatenation results. Repeated s = s + s
// doubles per iteration, so a handful of budget steps could otherwise
// allocate an arbitrarily large string (real engines throw RangeError
// "Invalid string length" the same way, just at a higher bound).
const maxStringLen = 1 << 24

// ThrowError wraps a value thrown by script code (throw statement or a
// runtime TypeError the interpreter raises).
type ThrowError struct {
	Value Value
	Line  int
}

func (e *ThrowError) Error() string {
	return fmt.Sprintf("minijs: uncaught exception at line %d: %s", e.Line, ToString(e.Value))
}

// throwStr builds a ThrowError carrying a string value (the interpreter's
// TypeError/RangeError/ReferenceError payloads).
func throwStr(msg string, line int) *ThrowError {
	return &ThrowError{Value: Str(msg), Line: line}
}

// envInline is the number of bindings an Env stores inline before spilling
// to a map. Call scopes (this + a few params) and block scopes almost always
// fit, which makes scope creation a single allocation with no map.
const envInline = 6

// Env is a lexical scope: a small inline set of bindings with a map
// overflow, plus a pointer to the enclosing scope.
type Env struct {
	parent *Env
	n      int8
	// frozen marks the shared builtins scope every interpreter chains to.
	// Assignments never land in a frozen scope (they shadow in the nearest
	// mutable global instead), so concurrent interpreters can read it safely.
	frozen bool
	names  [envInline]string
	vals   [envInline]Value
	more   map[string]Value
	// resolve, when set, builds a binding on demand (see SetResolver).
	resolve func(name string) (Value, bool)
}

// NewEnv returns a scope nested in parent (parent may be nil for globals).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent}
}

func (e *Env) lookupLocal(name string) (Value, bool) {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			return e.vals[i], true
		}
	}
	if e.more != nil {
		v, ok := e.more[name]
		return v, ok
	}
	return Value{}, false
}

// Lookup finds name in this scope chain. A scope with a resolver asks it
// for a name it does not hold before the search moves outward, and keeps
// what it builds.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.lookupLocal(name); ok {
			return v, true
		}
		if s.resolve != nil {
			if v, ok := s.resolve(name); ok {
				s.Define(name, v)
				return v, true
			}
		}
	}
	return Undefined(), false
}

// SetResolver makes this scope build bindings on demand: the first Lookup
// that misses name here calls r, and a binding r returns is Defined in this
// scope, so r runs at most once per name it serves. Only Lookup consults r.
// Define and Assign see just the bindings that exist, so a script that
// assigns or declares a resolvable name before reading it (`document = 1`,
// `var Math;`) ends with exactly the binding it would have had if r's value
// had been defined up front and then overwritten. A global scope's names
// are never enumerated by scripts, so building them late is unobservable.
func (e *Env) SetResolver(r func(name string) (Value, bool)) { e.resolve = r }

// Define creates or overwrites name in this exact scope.
func (e *Env) Define(name string, v Value) {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			e.vals[i] = v
			return
		}
	}
	if e.more != nil {
		e.more[name] = v
		return
	}
	if int(e.n) < envInline {
		e.names[e.n] = name
		e.vals[e.n] = v
		e.n++
		return
	}
	// A scope that spills past the inline slots is almost always a script's
	// global scope: its own top-level vars and functions plus the host
	// globals it read (the realm is resolved on demand, so untouched host
	// objects take no slot). Size the map for that case.
	e.more = make(map[string]Value, 16)
	e.more[name] = v
}

func (e *Env) assignLocal(name string, v Value) bool {
	for i := int8(0); i < e.n; i++ {
		if e.names[i] == name {
			e.vals[i] = v
			return true
		}
	}
	if e.more != nil {
		if _, ok := e.more[name]; ok {
			e.more[name] = v
			return true
		}
	}
	return false
}

// Assign sets name in the nearest scope that defines it; if none does, the
// value lands in the global (outermost) scope — JavaScript's implicit-global
// behaviour, which obfuscated ad scripts rely on.
func (e *Env) Assign(name string, v Value) {
	var outer *Env
	for s := e; s != nil; s = s.parent {
		if s.frozen {
			// A binding in the frozen builtins scope (e.g. `Array = shim`)
			// is shadowed in the interpreter's own global instead of
			// mutating state shared across interpreters.
			continue
		}
		if s.assignLocal(name, v) {
			return
		}
		outer = s
	}
	outer.Define(name, v)
}

// Each calls f for every binding in this exact scope (no parent traversal),
// in unspecified order.
func (e *Env) Each(f func(name string, v Value)) {
	for i := int8(0); i < e.n; i++ {
		f(e.names[i], e.vals[i])
	}
	for k, v := range e.more {
		f(k, v)
	}
}

// Interp executes parsed programs. One Interp corresponds to one page's
// script execution context in the emulated browser.
type Interp struct {
	// Global is the global scope. Host bindings (document, window, ...) are
	// Defined here by the embedder before Run.
	Global *Env
	// Budget is the remaining statement/expression step allowance.
	Budget int
	// MaxDepth bounds recursion (call depth).
	MaxDepth int
	depth    int
	// UseVM selects the bytecode VM over the tree-walker. Programs without
	// compiled code (and functions created by a tree-walk) still run on the
	// tree-walker; the two engines agree exactly (see FuzzCompileEval).
	UseVM bool
	// Host is an opaque embedder slot. Shared frozen host natives (see
	// NewSharedNative) reach per-document state through it instead of
	// capturing that state in per-interpreter closures.
	Host any
	// vm is the active pooled machine while a VM execution is in flight.
	vm *machine
	// objArena is the current chunk of the interp-owned object arena (see
	// Interp.alloc in value.go).
	objArena []Object
}

// DefaultBudget is the per-execution step allowance. Ads in the simulation
// run well under this; runaway loops hit it quickly.
const DefaultBudget = 2_000_000

// New returns an interpreter with a fresh global scope, the default budget,
// and the standard builtins (String, parseInt, ... shared; Math built on
// first use through ResolveBuiltin).
func New() *Interp {
	in := &Interp{Global: NewEnv(sharedGlobals), Budget: DefaultBudget, MaxDepth: 200, UseVM: true}
	in.Global.SetResolver(in.ResolveBuiltin)
	return in
}

// Run parses and executes src in the global scope.
func (in *Interp) Run(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined(), err
	}
	return in.RunProgram(prog)
}

// RunProgram executes an already-parsed program in the global scope.
func (in *Interp) RunProgram(prog *Program) (Value, error) {
	if in.UseVM {
		if prog.code == nil {
			// Compile on demand (eval, embedders without a code cache). A
			// compile failure falls back to the tree-walker.
			_ = CompileProgram(context.Background(), prog)
		}
		if prog.code != nil {
			return in.runProgramVM(prog)
		}
	}
	last := Undefined()
	// Hoist function declarations, as JS does.
	for _, s := range prog.Body {
		if fd, ok := s.(*FuncDecl); ok {
			in.Global.Define(fd.Name, in.makeFunction(fd.Fn, in.Global).Value())
		}
	}
	for _, s := range prog.Body {
		v, ctl, err := in.execStmt(s, in.Global)
		if err != nil {
			return Undefined(), err
		}
		if ctl != ctlNone {
			// return/break/continue at top level: stop quietly.
			return last, nil
		}
		if v.kind != KindEmpty {
			last = v
		}
	}
	return last, nil
}

// CallFunction invokes a script function value from Go, e.g. the browser
// firing a setTimeout callback or an onclick handler.
func (in *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	obj := fn.Obj()
	if obj == nil || !obj.IsFunction() {
		return Undefined(), &ThrowError{Value: Str("TypeError: not a function")}
	}
	return in.callObject(obj, this, args, 0)
}

// control-flow signals threaded through statement execution.
type ctl int

const (
	ctlNone ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

func (in *Interp) step(line int) error {
	in.Budget--
	if in.Budget < 0 {
		return ErrBudget
	}
	_ = line
	return nil
}

// stmtDeclares reports whether s, executed directly in a scope (not inside
// its own block), would Define a binding there.
func stmtDeclares(s Stmt) bool {
	switch s.(type) {
	case *VarDecl, *FuncDecl:
		return true
	}
	return false
}

// blockNeedsScope reports whether a block's direct statements declare
// bindings. Blocks that declare nothing share the enclosing scope: no
// binding can land in them (Assign never creates intermediate-scope
// bindings), so eliding the Env is invisible to scripts. The compiler uses
// the same predicate, keeping the two engines in lockstep.
func blockNeedsScope(body []Stmt) bool {
	for _, s := range body {
		if stmtDeclares(s) {
			return true
		}
	}
	return false
}

// forNeedsScope mirrors blockNeedsScope for a for statement's loop scope.
func forNeedsScope(st *ForStmt) bool {
	if st.Init != nil && stmtDeclares(st.Init) {
		return true
	}
	return stmtDeclares(st.Body)
}

// forInNeedsScope mirrors blockNeedsScope for a for-in loop scope.
func forInNeedsScope(st *ForInStmt) bool {
	return st.Decl || stmtDeclares(st.Body)
}

// execStmt executes a statement. The Value return is the statement's
// completion value (used for return statements and top-level expressions);
// the zero Value means "no completion value".
func (in *Interp) execStmt(s Stmt, env *Env) (Value, ctl, error) {
	if err := in.step(s.nodeLine()); err != nil {
		return Value{}, ctlNone, err
	}
	switch st := s.(type) {
	case *EmptyStmt:
		return Value{}, ctlNone, nil

	case *VarDecl:
		for i, name := range st.Names {
			v := Undefined()
			if st.Inits[i] != nil {
				var err error
				v, err = in.eval(st.Inits[i], env)
				if err != nil {
					return Value{}, ctlNone, err
				}
			}
			env.Define(name, v)
		}
		return Value{}, ctlNone, nil

	case *FuncDecl:
		env.Define(st.Name, in.makeFunction(st.Fn, env).Value())
		return Value{}, ctlNone, nil

	case *ExprStmt:
		v, err := in.eval(st.X, env)
		return v, ctlNone, err

	case *BlockStmt:
		return in.execBlock(st, env)

	case *IfStmt:
		cond, err := in.eval(st.Cond, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		if Truthy(cond) {
			return in.execStmt(st.Then, env)
		}
		if st.Else != nil {
			return in.execStmt(st.Else, env)
		}
		return Value{}, ctlNone, nil

	case *WhileStmt:
		for {
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if !Truthy(cond) {
				return Value{}, ctlNone, nil
			}
			v, c, err := in.execStmt(st.Body, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			switch c {
			case ctlBreak:
				return Value{}, ctlNone, nil
			case ctlReturn:
				return v, ctlReturn, nil
			}
		}

	case *DoWhileStmt:
		for {
			v, c, err := in.execStmt(st.Body, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			switch c {
			case ctlBreak:
				return Value{}, ctlNone, nil
			case ctlReturn:
				return v, ctlReturn, nil
			}
			cond, err := in.eval(st.Cond, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if !Truthy(cond) {
				return Value{}, ctlNone, nil
			}
		}

	case *ForStmt:
		loopEnv := env
		if forNeedsScope(st) {
			loopEnv = NewEnv(env)
		}
		if st.Init != nil {
			if _, _, err := in.execStmt(st.Init, loopEnv); err != nil {
				return Value{}, ctlNone, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := in.eval(st.Cond, loopEnv)
				if err != nil {
					return Value{}, ctlNone, err
				}
				if !Truthy(cond) {
					return Value{}, ctlNone, nil
				}
			}
			v, c, err := in.execStmt(st.Body, loopEnv)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if c == ctlBreak {
				return Value{}, ctlNone, nil
			}
			if c == ctlReturn {
				return v, ctlReturn, nil
			}
			if st.Post != nil {
				if _, err := in.eval(st.Post, loopEnv); err != nil {
					return Value{}, ctlNone, err
				}
			}
		}

	case *ForInStmt:
		objV, err := in.eval(st.Obj, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		obj := objV.Obj()
		if obj == nil {
			return Value{}, ctlNone, nil // for-in over non-object iterates nothing
		}
		loopEnv := env
		if forInNeedsScope(st) {
			loopEnv = NewEnv(env)
		}
		if st.Decl {
			loopEnv.Define(st.VarName, Undefined())
		}
		for _, key := range obj.Keys() {
			if st.Decl {
				loopEnv.Define(st.VarName, Str(key))
			} else {
				loopEnv.Assign(st.VarName, Str(key))
			}
			v, c, err := in.execStmt(st.Body, loopEnv)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if c == ctlBreak {
				return Value{}, ctlNone, nil
			}
			if c == ctlReturn {
				return v, ctlReturn, nil
			}
		}
		return Value{}, ctlNone, nil

	case *ReturnStmt:
		v := Undefined()
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
		}
		return v, ctlReturn, nil

	case *BreakStmt:
		return Value{}, ctlBreak, nil

	case *ContinueStmt:
		return Value{}, ctlContinue, nil

	case *ThrowStmt:
		v, err := in.eval(st.Value, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		return Value{}, ctlNone, &ThrowError{Value: v, Line: st.nodeLine()}

	case *SwitchStmt:
		tag, err := in.eval(st.Tag, env)
		if err != nil {
			return Value{}, ctlNone, err
		}
		// Find the matching clause (or default), then execute from there,
		// falling through until a break.
		start := -1
		defaultIdx := -1
		for i, c := range st.Cases {
			if c.Test == nil {
				defaultIdx = i
				continue
			}
			tv, err := in.eval(c.Test, env)
			if err != nil {
				return Value{}, ctlNone, err
			}
			if StrictEquals(tag, tv) {
				start = i
				break
			}
		}
		if start < 0 {
			start = defaultIdx
		}
		if start < 0 {
			return Value{}, ctlNone, nil
		}
		switchEnv := NewEnv(env)
		for i := start; i < len(st.Cases); i++ {
			for _, s2 := range st.Cases[i].Body {
				v, c, err := in.execStmt(s2, switchEnv)
				if err != nil {
					return Value{}, ctlNone, err
				}
				switch c {
				case ctlBreak:
					return Value{}, ctlNone, nil
				case ctlReturn, ctlContinue:
					return v, c, nil
				}
			}
		}
		return Value{}, ctlNone, nil

	case *TryStmt:
		v, c, err := in.execBlock(st.Body, env)
		var throwErr *ThrowError
		if err != nil && errors.As(err, &throwErr) && st.Catch != nil {
			catchEnv := NewEnv(env)
			catchEnv.Define(st.CatchName, throwErr.Value)
			v, c, err = in.execBlock(st.Catch, catchEnv)
		}
		if st.Finally != nil {
			fv, fc, ferr := in.execBlock(st.Finally, env)
			if ferr != nil {
				return Value{}, ctlNone, ferr
			}
			if fc != ctlNone {
				return fv, fc, nil
			}
		}
		return v, c, err
	}
	return Value{}, ctlNone, fmt.Errorf("minijs: unknown statement %T", s)
}

func (in *Interp) execBlock(b *BlockStmt, env *Env) (Value, ctl, error) {
	blockEnv := env
	if blockNeedsScope(b.Body) {
		blockEnv = NewEnv(env)
		// Hoist function declarations within the block.
		for _, s := range b.Body {
			if fd, ok := s.(*FuncDecl); ok {
				blockEnv.Define(fd.Name, in.makeFunction(fd.Fn, blockEnv).Value())
			}
		}
	}
	for _, s := range b.Body {
		v, c, err := in.execStmt(s, blockEnv)
		if err != nil {
			return Value{}, ctlNone, err
		}
		if c != ctlNone {
			return v, c, nil
		}
	}
	return Value{}, ctlNone, nil
}

func (in *Interp) makeFunction(fn *FuncLit, env *Env) *Object {
	return &Object{Fn: fn, Env: env, Name: fn.Name}
}

// eval evaluates an expression.
func (in *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := in.step(e.nodeLine()); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *NumberLit:
		return Num(x.Value), nil
	case *StringLit:
		return Str(x.Value), nil
	case *BoolLit:
		return Bool(x.Value), nil
	case *NullLit:
		return Null(), nil
	case *UndefinedLit:
		return Undefined(), nil
	case *ThisExpr:
		if v, ok := env.Lookup("this"); ok {
			return v, nil
		}
		return Undefined(), nil
	case *Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return Value{}, throwStr("ReferenceError: "+x.Name+" is not defined", x.nodeLine())

	case *ArrayLit:
		arr := in.NewArray()
		if len(x.Elems) > 0 {
			arr.Elems = make([]Value, 0, len(x.Elems))
		}
		for _, el := range x.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return Value{}, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr.Value(), nil

	case *ObjectLit:
		obj := in.NewObject()
		for i, k := range x.Keys {
			v, err := in.eval(x.Values[i], env)
			if err != nil {
				return Value{}, err
			}
			obj.Props[k] = v
		}
		return obj.Value(), nil

	case *FuncLit:
		return in.makeFunction(x, env).Value(), nil

	case *RegexLit:
		return newRegexObject(x).Value(), nil

	case *UnaryExpr:
		return in.evalUnary(x, env)

	case *UpdateExpr:
		return in.evalUpdate(x, env)

	case *BinaryExpr:
		return in.evalBinary(x, env)

	case *LogicalExpr:
		left, err := in.eval(x.X, env)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "&&" {
			if !Truthy(left) {
				return left, nil
			}
			return in.eval(x.Y, env)
		}
		if Truthy(left) {
			return left, nil
		}
		return in.eval(x.Y, env)

	case *CondExpr:
		cond, err := in.eval(x.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if Truthy(cond) {
			return in.eval(x.Then, env)
		}
		return in.eval(x.Else, env)

	case *AssignExpr:
		return in.evalAssign(x, env)

	case *CallExpr:
		return in.evalCall(x, env)

	case *NewExpr:
		return in.evalNew(x, env)

	case *MemberExpr:
		obj, err := in.eval(x.Obj, env)
		if err != nil {
			return Value{}, err
		}
		return in.getMember(obj, x.Name, x.nodeLine())

	case *IndexExpr:
		obj, err := in.eval(x.Obj, env)
		if err != nil {
			return Value{}, err
		}
		idx, err := in.eval(x.Index, env)
		if err != nil {
			return Value{}, err
		}
		return in.getIndex(obj, idx, x.nodeLine())
	}
	return Value{}, fmt.Errorf("minijs: unknown expression %T", e)
}

func (in *Interp) evalUnary(x *UnaryExpr, env *Env) (Value, error) {
	if x.Op == "typeof" {
		// typeof tolerates undefined identifiers.
		if id, ok := x.X.(*Ident); ok {
			if v, found := env.Lookup(id.Name); found {
				return Str(TypeOf(v)), nil
			}
			return Str("undefined"), nil
		}
	}
	if x.Op == "delete" {
		if m, ok := x.X.(*MemberExpr); ok {
			objV, err := in.eval(m.Obj, env)
			if err != nil {
				return Value{}, err
			}
			if obj := objV.Obj(); obj != nil {
				obj.Delete(m.Name)
			}
			return Bool(true), nil
		}
		return Bool(true), nil
	}
	v, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "-":
		return Num(-ToNumber(v)), nil
	case "+":
		return Num(ToNumber(v)), nil
	case "!":
		return Bool(!Truthy(v)), nil
	case "~":
		return Num(float64(^toInt32(v))), nil
	case "typeof":
		return Str(TypeOf(v)), nil
	}
	return Value{}, fmt.Errorf("minijs: unknown unary op %q", x.Op)
}

func (in *Interp) evalUpdate(x *UpdateExpr, env *Env) (Value, error) {
	old, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	n := ToNumber(old)
	var next float64
	if x.Op == "++" {
		next = n + 1
	} else {
		next = n - 1
	}
	if err := in.assignTo(x.X, Num(next), env); err != nil {
		return Value{}, err
	}
	if x.Prefix {
		return Num(next), nil
	}
	return Num(n), nil
}

func (in *Interp) evalBinary(x *BinaryExpr, env *Env) (Value, error) {
	a, err := in.eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	b, err := in.eval(x.Y, env)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(x.Op, a, b, x.nodeLine())
}

func applyBinary(op string, a, b Value, line int) (Value, error) {
	switch op {
	case "+":
		// Numeric fast path: both sides already numbers.
		if a.kind == KindNumber && b.kind == KindNumber {
			return Num(a.num + b.num), nil
		}
		// String concatenation if either side is a string or a non-array
		// object (which stringifies).
		if isStringy(a) || isStringy(b) {
			sa, sb := ToString(a), ToString(b)
			if len(sa)+len(sb) > maxStringLen {
				return Value{}, throwStr("RangeError: invalid string length", line)
			}
			return Str(sa + sb), nil
		}
		return Num(ToNumber(a) + ToNumber(b)), nil
	case "-":
		return Num(ToNumber(a) - ToNumber(b)), nil
	case "*":
		return Num(ToNumber(a) * ToNumber(b)), nil
	case "/":
		return Num(ToNumber(a) / ToNumber(b)), nil
	case "%":
		return Num(math.Mod(ToNumber(a), ToNumber(b))), nil
	case "==":
		return Bool(LooseEquals(a, b)), nil
	case "!=":
		return Bool(!LooseEquals(a, b)), nil
	case "===":
		return Bool(StrictEquals(a, b)), nil
	case "!==":
		return Bool(!StrictEquals(a, b)), nil
	case "<", ">", "<=", ">=":
		return Bool(compare(op, a, b)), nil
	case "&":
		return Num(float64(toInt32(a) & toInt32(b))), nil
	case "|":
		return Num(float64(toInt32(a) | toInt32(b))), nil
	case "^":
		return Num(float64(toInt32(a) ^ toInt32(b))), nil
	case "<<":
		return Num(float64(toInt32(a) << (toUint32(b) & 31))), nil
	case ">>":
		return Num(float64(toInt32(a) >> (toUint32(b) & 31))), nil
	case ">>>":
		return Num(float64(toUint32(a) >> (toUint32(b) & 31))), nil
	case "in":
		obj := b.Obj()
		if obj == nil {
			return Value{}, throwStr("TypeError: 'in' on non-object", line)
		}
		_, found := obj.Get(ToString(a))
		return Bool(found), nil
	case "instanceof":
		// The dialect has no prototype chains; instanceof is a pragmatic
		// check: array instanceof Array, function instanceof Function.
		obj := a.Obj()
		if obj == nil {
			return Bool(false), nil
		}
		name := ""
		if fb := b.Obj(); fb != nil {
			name = fb.Name
		}
		switch name {
		case "Array":
			return Bool(obj.IsArray), nil
		case "Function":
			return Bool(obj.IsFunction()), nil
		}
		return Bool(false), nil
	}
	return Value{}, fmt.Errorf("minijs: unknown binary op %q", op)
}

func isStringy(v Value) bool {
	switch v.kind {
	case KindString:
		return true
	case KindObject:
		return !v.obj.IsFunction() // objects and arrays concatenate as strings with +
	}
	return false
}

func compare(op string, a, b Value) bool {
	if a.kind == KindString && b.kind == KindString {
		as, bs := a.str, b.str
		switch op {
		case "<":
			return as < bs
		case ">":
			return as > bs
		case "<=":
			return as <= bs
		case ">=":
			return as >= bs
		}
	}
	an, bn := ToNumber(a), ToNumber(b)
	if math.IsNaN(an) || math.IsNaN(bn) {
		return false
	}
	switch op {
	case "<":
		return an < bn
	case ">":
		return an > bn
	case "<=":
		return an <= bn
	case ">=":
		return an >= bn
	}
	return false
}

func toInt32(v Value) int32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return int32(int64(n))
}

func toUint32(v Value) uint32 {
	n := ToNumber(v)
	if math.IsNaN(n) || math.IsInf(n, 0) {
		return 0
	}
	return uint32(int64(n))
}

func (in *Interp) evalAssign(x *AssignExpr, env *Env) (Value, error) {
	val, err := in.eval(x.Value, env)
	if err != nil {
		return Value{}, err
	}
	if x.Op != "=" {
		old, err := in.eval(x.Target, env)
		if err != nil {
			return Value{}, err
		}
		binOp := x.Op[:len(x.Op)-1] // "+=" -> "+"
		val, err = applyBinary(binOp, old, val, x.nodeLine())
		if err != nil {
			return Value{}, err
		}
	}
	if err := in.assignTo(x.Target, val, env); err != nil {
		return Value{}, err
	}
	return val, nil
}

func (in *Interp) assignTo(target Expr, val Value, env *Env) error {
	switch t := target.(type) {
	case *Ident:
		env.Assign(t.Name, val)
		return nil
	case *MemberExpr:
		objV, err := in.eval(t.Obj, env)
		if err != nil {
			return err
		}
		return in.setMemberValue(objV, t.Name, val, t.nodeLine())
	case *IndexExpr:
		objV, err := in.eval(t.Obj, env)
		if err != nil {
			return err
		}
		idxV, err := in.eval(t.Index, env)
		if err != nil {
			return err
		}
		return in.setIndexValue(objV, idxV, val, t.nodeLine())
	}
	return fmt.Errorf("minijs: invalid assignment target %T", target)
}

// setMemberValue stores obj.name = val; shared by the tree-walker's
// assignTo and the VM's opSetMember so error values stay identical.
func (in *Interp) setMemberValue(objV Value, name string, val Value, line int) error {
	obj := objV.Obj()
	if obj == nil {
		return throwStr("TypeError: cannot set property "+name+" of non-object", line)
	}
	obj.Set(name, val)
	return nil
}

// setIndexValue stores obj[idx] = val; shared by assignTo and opSetIndex.
func (in *Interp) setIndexValue(objV, idxV, val Value, line int) error {
	obj := objV.Obj()
	if obj == nil {
		return throwStr("TypeError: cannot index non-object", line)
	}
	if obj.IsArray {
		if idx, ok := arrayIndex(idxV); ok && idx >= 0 {
			if idx >= maxArrayLen {
				return throwStr("RangeError: invalid array length", line)
			}
			for len(obj.Elems) <= idx {
				obj.Elems = append(obj.Elems, Undefined())
			}
			obj.Elems[idx] = val
			return nil
		}
	}
	obj.Set(ToString(idxV), val)
	return nil
}

func (in *Interp) evalCall(x *CallExpr, env *Env) (Value, error) {
	this := Undefined()
	var fnV Value
	var err error

	switch callee := x.Callee.(type) {
	case *MemberExpr:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return Value{}, err
		}
		fnV, err = in.getMember(this, callee.Name, callee.nodeLine())
		if err != nil {
			return Value{}, err
		}
	case *IndexExpr:
		this, err = in.eval(callee.Obj, env)
		if err != nil {
			return Value{}, err
		}
		idx, err2 := in.eval(callee.Index, env)
		if err2 != nil {
			return Value{}, err2
		}
		fnV, err = in.getIndex(this, idx, callee.nodeLine())
		if err != nil {
			return Value{}, err
		}
	default:
		fnV, err = in.eval(x.Callee, env)
		if err != nil {
			return Value{}, err
		}
	}

	var args []Value
	if len(x.Args) > 0 {
		args = make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, env)
			if err != nil {
				return Value{}, err
			}
		}
	}

	fn := fnV.Obj()
	if fn == nil || !fn.IsFunction() {
		return Value{}, throwStr("TypeError: "+calleeName(x.Callee)+" is not a function", x.nodeLine())
	}
	return in.callObject(fn, this, args, x.nodeLine())
}

func calleeName(e Expr) string {
	switch c := e.(type) {
	case *Ident:
		return c.Name
	case *MemberExpr:
		return calleeName(c.Obj) + "." + c.Name
	default:
		return "expression"
	}
}

func (in *Interp) callObject(fn *Object, this Value, args []Value, line int) (Value, error) {
	if in.depth >= in.MaxDepth {
		return Value{}, throwStr("RangeError: maximum call depth exceeded", line)
	}
	in.depth++
	defer func() { in.depth-- }()

	if fn.Native != nil {
		return fn.Native(in, this, args)
	}
	callEnv := NewEnv(fn.Env)
	callEnv.Define("this", this)
	if fn.Fn.UsesArguments {
		// Copy args: the VM hands out slices of its reusable call arena, so
		// anything that outlives the call must own its backing array.
		argsArr := in.NewArray(append([]Value(nil), args...)...)
		callEnv.Define("arguments", argsArr.Value())
	}
	for i, p := range fn.Fn.Params {
		if i < len(args) {
			callEnv.Define(p, args[i])
		} else {
			callEnv.Define(p, Undefined())
		}
	}
	if in.UseVM && fn.Fn.code != nil {
		_, acquired := in.ensureMachine()
		v, c, err := in.runChunk(fn.Fn.code, callEnv)
		if acquired {
			in.releaseMachine()
		}
		if err != nil {
			return Value{}, err
		}
		if c == ctlReturn {
			return v, nil
		}
		return Undefined(), nil
	}
	v, c, err := in.execBlock(fn.Fn.Body, callEnv)
	if err != nil {
		return Value{}, err
	}
	if c == ctlReturn {
		return v, nil
	}
	return Undefined(), nil
}

func (in *Interp) evalNew(x *NewExpr, env *Env) (Value, error) {
	fnV, err := in.eval(x.Callee, env)
	if err != nil {
		return Value{}, err
	}
	// Arguments are evaluated before the constructor check (ES EvaluateNew
	// order) — the VM necessarily does the same, and step parity between the
	// engines depends on it.
	var args []Value
	if len(x.Args) > 0 {
		args = make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, env)
			if err != nil {
				return Value{}, err
			}
		}
	}
	fn := fnV.Obj()
	if fn == nil || !fn.IsFunction() {
		return Value{}, throwStr("TypeError: not a constructor", x.nodeLine())
	}
	this := in.NewObject()
	ret, err := in.callObject(fn, this.Value(), args, x.nodeLine())
	if err != nil {
		return Value{}, err
	}
	// If the constructor returned an object, that wins; otherwise `this`.
	if obj := ret.Obj(); obj != nil {
		return obj.Value(), nil
	}
	return this.Value(), nil
}

// getMember resolves obj.name including primitive methods on strings,
// numbers, and arrays.
func (in *Interp) getMember(objV Value, name string, line int) (Value, error) {
	switch objV.kind {
	case KindString:
		return stringMember(objV.str, name), nil
	case KindNumber:
		return numberMember(objV.num, name), nil
	case KindObject:
		o := objV.obj
		if o.IsArray {
			if m := arrayMember(name); m != nil {
				return m.Value(), nil
			}
		}
		v, _ := o.Get(name)
		return v, nil
	case KindEmpty, KindUndefined, KindNull:
		return Value{}, throwStr("TypeError: cannot read property '"+name+"' of "+ToString(objV), line)
	}
	return Undefined(), nil
}

func (in *Interp) getIndex(objV Value, idx Value, line int) (Value, error) {
	switch objV.kind {
	case KindString:
		o := objV.str
		if idx.kind == KindNumber {
			n := int(idx.num)
			if n >= 0 && n < len(o) {
				return Str(o[n : n+1]), nil
			}
			return Undefined(), nil
		}
		return stringMember(o, ToString(idx)), nil
	case KindObject:
		o := objV.obj
		if o.IsArray {
			if n, ok := arrayIndex(idx); ok {
				if n >= 0 && n < len(o.Elems) {
					return o.Elems[n], nil
				}
				return Undefined(), nil
			}
			if m := arrayMember(ToString(idx)); m != nil {
				return m.Value(), nil
			}
		}
		return in.getMember(objV, ToString(idx), line)
	case KindEmpty, KindUndefined, KindNull:
		return Value{}, throwStr("TypeError: cannot index "+ToString(objV), line)
	}
	return Undefined(), nil
}

// arrayIndex interprets v as an integer array index. Numeric strings count,
// because for-in yields string keys ("0", "1", ...) that scripts use to
// index back into the array.
func arrayIndex(v Value) (int, bool) {
	switch v.kind {
	case KindNumber:
		if v.num == math.Trunc(v.num) && !math.IsInf(v.num, 0) {
			return int(v.num), true
		}
	case KindString:
		x := v.str
		if x == "" {
			return 0, false
		}
		n := 0
		for i := 0; i < len(x); i++ {
			if x[i] < '0' || x[i] > '9' {
				return 0, false
			}
			n = n*10 + int(x[i]-'0')
			if n > 1<<30 {
				return 0, false
			}
		}
		return n, true
	}
	return 0, false
}

// parseIntValue implements parseInt semantics for builtins.go.
func parseIntValue(s string, radix int) float64 {
	s = trimLeadingSpace(s)
	sign := 1.0
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		if s[0] == '-' {
			sign = -1
		}
		s = s[1:]
	}
	if radix == 0 {
		if len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
			radix = 16
			s = s[2:]
		} else {
			radix = 10
		}
	} else if radix == 16 && len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	end := 0
	for end < len(s) && digitVal(s[end]) >= 0 && digitVal(s[end]) < radix {
		end++
	}
	if end == 0 {
		return math.NaN()
	}
	n, err := strconv.ParseInt(s[:end], radix, 64)
	if err != nil {
		// Overflow: fall back to float accumulation.
		f := 0.0
		for i := 0; i < end; i++ {
			f = f*float64(radix) + float64(digitVal(s[i]))
		}
		return sign * f
	}
	return sign * float64(n)
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

func trimLeadingSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n' || s[0] == '\r') {
		s = s[1:]
	}
	return s
}
